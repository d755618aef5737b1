#include "memsys/divot_gate.hh"

#include <algorithm>

#include "auth/protocol.hh"
#include "itdr/budget.hh"
#include "util/logging.hh"

namespace divot {

DivotGate::DivotGate(TwoWayAuthProtocol &protocol,
                     MemoryController &controller, Sdram &sdram,
                     TransmissionLine pristine_bus, double clock_hz)
    : protocol_(protocol), controller_(controller), sdram_(sdram),
      currentBus_(std::move(pristine_bus)), clockHz_(clock_hz)
{
    if (clock_hz <= 0.0)
        divot_fatal("bus clock must be positive (got %g)", clock_hz);
    const MeasurementBudget budget = predictBudget(
        protocol_.cpuSide().instrument().config(),
        currentBus_.roundTripDelay());
    roundCycles_ = std::max<uint64_t>(budget.expectedCycles, 1);
    nextRoundEnd_ = roundCycles_;
}

DivotGate::~DivotGate() = default;

void
DivotGate::scheduleEvent(BusEvent event)
{
    pending_.push_back(std::move(event));
    std::sort(pending_.begin(), pending_.end(),
              [](const BusEvent &a, const BusEvent &b) {
                  return a.cycle < b.cycle;
              });
}

void
DivotGate::applyVerdict(bool trusted, bool block_access, uint64_t cycle)
{
    controller_.setBusTrusted(trusted);
    sdram_.setAccessBlocked(block_access);

    if (!trusted && outstandingAttackCycle_) {
        DetectionRecord rec;
        rec.attackCycle = *outstandingAttackCycle_;
        rec.detectedCycle = cycle;
        rec.latencyCycles = cycle - rec.attackCycle;
        rec.latencySeconds =
            static_cast<double>(rec.latencyCycles) / clockHz_;
        rec.attack = outstandingAttack_;
        detections_.push_back(rec);
        outstandingAttackCycle_.reset();
        outstandingAttack_.clear();
    }
}

void
DivotGate::tick(uint64_t cycle)
{
    // Apply due physical changes.
    while (!pending_.empty() && pending_.front().cycle <= cycle) {
        BusEvent &event = pending_.front();
        currentBus_ = std::move(event.newBus);
        if (!outstandingAttackCycle_) {
            outstandingAttackCycle_ = event.cycle;
            outstandingAttack_ = event.description;
        }
        divot_inform("cycle %llu: bus change: %s",
                     static_cast<unsigned long long>(event.cycle),
                     event.description.c_str());
        pending_.erase(pending_.begin());
    }

    if (cycle < nextRoundEnd_)
        return;

    // A monitoring round just completed: evaluate on the bus as it
    // now exists.
    nextRoundEnd_ += roundCycles_;
    ++rounds_;

    if (lastOutcome_)
        *lastOutcome_ = protocol_.monitorRound(currentBus_);
    else
        lastOutcome_ = std::make_unique<TwoWayOutcome>(
            protocol_.monitorRound(currentBus_));

    applyVerdict(
        lastOutcome_->busTrusted,
        lastOutcome_->memoryAction == ReactionAction::BlockAccess ||
            lastOutcome_->memory.tamperAlarm,
        cycle);
}

} // namespace divot
