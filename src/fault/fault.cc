#include "fault/fault.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "util/logging.hh"

namespace divot {

FaultPlan &
FaultPlan::add(FaultSpec spec)
{
    specs_.push_back(spec);
    return *this;
}

FaultPlan &
FaultPlan::comparatorStuck(uint64_t first, uint64_t n, bool high)
{
    return add({high ? FaultKind::ComparatorStuckHigh
                     : FaultKind::ComparatorStuckLow,
                first, n, 0.0, 0.0});
}

FaultPlan &
FaultPlan::offsetDrift(uint64_t first, uint64_t n, double volts)
{
    return add({FaultKind::ComparatorOffsetDrift, first, n, volts, 0.0});
}

FaultPlan &
FaultPlan::pllDropout(uint64_t first, uint64_t n, double rate)
{
    return add({FaultKind::PllPhaseDropout, first, n, rate, 0.0});
}

FaultPlan &
FaultPlan::counterBitFlip(uint64_t first, uint64_t n, double rate)
{
    return add({FaultKind::CounterBitFlip, first, n, rate, 0.0});
}

FaultPlan &
FaultPlan::emiBurst(uint64_t first, uint64_t n, double volts, double hz)
{
    return add({FaultKind::EmiBurst, first, n, volts, hz});
}

FaultPlan &
FaultPlan::budgetOverrun(uint64_t first, uint64_t n, double factor)
{
    return add({FaultKind::BudgetOverrun, first, n, factor, 0.0});
}

FaultPlan &
FaultPlan::epromCorruption(uint64_t event, double bytes)
{
    return add({FaultKind::EpromCorruption, event, 1, bytes, 0.0});
}

FaultPlan &
FaultPlan::storageTornWrite(uint64_t event, double fraction)
{
    return add({FaultKind::StorageTornWrite, event, 1, fraction, 0.0});
}

FaultPlan &
FaultPlan::storageCrash(uint64_t event, StorageCrashPoint point)
{
    return add({FaultKind::StorageCrash, event, 1,
                static_cast<double>(point), 0.0});
}

FaultPlan &
FaultPlan::storageBitRot(uint64_t event, uint64_t n, double bits)
{
    return add({FaultKind::StorageBitRot, event, n, bits, 0.0});
}

FaultPlan &
FaultPlan::storageTruncation(uint64_t event, double keep_fraction)
{
    return add({FaultKind::StorageTruncation, event, 1, keep_fraction,
                0.0});
}

uint64_t
FaultPlan::defaultSeed()
{
    if (const char *env = std::getenv("DIVOT_FAULT_SEED")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 0);
        if (end && end != env && *end == '\0')
            return static_cast<uint64_t>(v);
        divot_warn("DIVOT_FAULT_SEED='%s' is not an integer; "
                   "using the built-in seed", env);
    }
    return 0xFA017ull;
}

bool
FaultFrame::any() const
{
    return comparatorStuck >= 0 || comparatorOffset != 0.0 ||
           pllDropoutRate > 0.0 || counterFlipRate > 0.0 ||
           emiAmplitude > 0.0 || cycleOverrunFactor != 1.0;
}

namespace {

bool
active(const FaultSpec &spec, uint64_t index)
{
    if (index < spec.firstMeasurement)
        return false;
    if (spec.measurements == 0)
        return true;
    return index - spec.firstMeasurement < spec.measurements;
}

} // namespace

FaultInjector::FaultInjector(FaultPlan plan, Rng rng)
    : plan_(std::move(plan)), base_(rng)
{
}

FaultFrame
FaultInjector::frameFor(uint64_t measurement_index) const
{
    // Everything derives from (base state, index): the frame is a pure
    // function of the measurement index, so campaigns reproduce
    // bit-for-bit regardless of which thread performs the measurement.
    Rng draw = base_.forkStable(measurement_index * 2 + 1);

    FaultFrame frame;
    frame.binRng = base_.forkStable(measurement_index * 2);
    for (const FaultSpec &spec : plan_.specs()) {
        if (!active(spec, measurement_index))
            continue;
        switch (spec.kind) {
          case FaultKind::ComparatorStuckLow:
            frame.comparatorStuck = 0;
            break;
          case FaultKind::ComparatorStuckHigh:
            frame.comparatorStuck = 1;
            break;
          case FaultKind::ComparatorOffsetDrift:
            frame.comparatorOffset += spec.magnitude;
            break;
          case FaultKind::PllPhaseDropout:
            frame.pllDropoutRate =
                std::min(1.0, frame.pllDropoutRate + spec.magnitude);
            break;
          case FaultKind::CounterBitFlip:
            frame.counterFlipRate =
                std::min(1.0, frame.counterFlipRate + spec.magnitude);
            break;
          case FaultKind::EmiBurst:
            frame.emiAmplitude = std::max(frame.emiAmplitude,
                                          spec.magnitude);
            frame.emiFrequency = spec.frequency;
            frame.emiPhase = draw.uniform(0.0, 6.283185307179586);
            break;
          case FaultKind::BudgetOverrun:
            frame.cycleOverrunFactor *= spec.magnitude > 0.0
                ? spec.magnitude : 1.0;
            break;
          case FaultKind::EpromCorruption:
          case FaultKind::StorageTornWrite:
          case FaultKind::StorageCrash:
          case FaultKind::StorageBitRot:
          case FaultKind::StorageTruncation:
            break; // storage faults are applied by corruptFile() /
                   // storageFrameFor(), not per measurement
        }
    }
    return frame;
}

StorageFault
FaultInjector::storageFrameFor(uint64_t event_index) const
{
    // Domain-separated from the measurement frames (odd/even tags of
    // frameFor): storage events use their own tag arithmetic so a
    // plan mixing instrument and storage cells keeps both streams
    // pure functions of their respective indices.
    StorageFault fault;
    fault.rotRng = base_.forkStable(0x570A6E00ULL + event_index * 2);
    Rng draw = base_.forkStable(0x570A6E01ULL + event_index * 2);
    for (const FaultSpec &spec : plan_.specs()) {
        if (!active(spec, event_index))
            continue;
        switch (spec.kind) {
          case FaultKind::StorageTornWrite:
            fault.torn = true;
            fault.tornFraction = spec.magnitude > 0.0 &&
                                 spec.magnitude < 1.0
                ? spec.magnitude : draw.uniform(0.0, 1.0);
            break;
          case FaultKind::StorageCrash:
            fault.crash = true;
            fault.crashPoint = static_cast<StorageCrashPoint>(
                std::min<int>(3, std::max<int>(
                    0, static_cast<int>(spec.magnitude))));
            break;
          case FaultKind::StorageBitRot:
            fault.bitRotBits += spec.magnitude >= 1.0
                ? static_cast<uint64_t>(spec.magnitude) : 1u;
            break;
          case FaultKind::StorageTruncation:
            fault.truncate = true;
            fault.truncateKeep = spec.magnitude >= 0.0 &&
                                 spec.magnitude <= 1.0
                ? spec.magnitude : 0.5;
            break;
          default:
            break; // instrument cells are resolved by frameFor()
        }
    }
    return fault;
}

bool
FaultInjector::hasStorageFaults() const
{
    for (const FaultSpec &spec : plan_.specs()) {
        switch (spec.kind) {
          case FaultKind::StorageTornWrite:
          case FaultKind::StorageCrash:
          case FaultKind::StorageBitRot:
          case FaultKind::StorageTruncation:
            return true;
          default:
            break;
        }
    }
    return false;
}

bool
FaultInjector::epromFaultAt(uint64_t event_index) const
{
    for (const FaultSpec &spec : plan_.specs()) {
        if (spec.kind == FaultKind::EpromCorruption &&
            active(spec, event_index)) {
            return true;
        }
    }
    return false;
}

unsigned
FaultInjector::corruptFile(const std::string &path,
                           uint64_t event_index) const
{
    unsigned total = 0;
    for (const FaultSpec &spec : plan_.specs()) {
        if (spec.kind != FaultKind::EpromCorruption ||
            !active(spec, event_index)) {
            continue;
        }

        std::ifstream in(path, std::ios::binary);
        if (!in)
            return total;
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        in.close();
        if (bytes.empty())
            return total;

        Rng draw = base_.forkStable(0xE9 + event_index * 16 + total);
        unsigned count = spec.magnitude >= 1.0
            ? static_cast<unsigned>(spec.magnitude) : 1u;
        for (unsigned i = 0; i < count; ++i) {
            uint64_t pos = draw.uniformInt(bytes.size());
            unsigned bit = static_cast<unsigned>(draw.uniformInt(8));
            bytes[pos] = static_cast<char>(
                static_cast<unsigned char>(bytes[pos]) ^ (1u << bit));
        }

        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            return total;
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.close();
        total += count;
    }
    return total;
}

} // namespace divot
