#include "itdr/itdr.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>

#include "itdr/apc.hh"
#include "itdr/calibrate.hh"
#include "itdr/counter.hh"
#include "txline/born.hh"
#include "txline/lattice.hh"
#include "util/logging.hh"

namespace divot {

struct ReconstructionPlan
{
    /**
     * Everything the plan builder reads, plus the analytic engine's
     * frozen reference levels, so two instruments with equal keys
     * would build byte-identical plans.
     */
    struct Key
    {
        double sigma = 0.0;
        unsigned bins = 0;
        unsigned trials = 0;
        unsigned counterWidthBits = 0;
        /** pdm.levelsAt(m * tau) per bin (bins x levels, row-major). */
        std::vector<double> binLevels;
        /** The reference level each bin's j-th strobe sees under the
         *  analytic engine (bins x levels, row-major). */
        std::vector<double> analyticLevels;
    };

    std::shared_ptr<const Key> key;
    /** Reconstruction per (bin, hit count) — bins x (trials + 1),
     *  row-major, before offset correction. A bin's hit count takes
     *  only trials + 1 values, so its inverse mixture CDF collapses
     *  to one row of this table (the reconstruction ROM of a hardware
     *  iTDR). Entry h of row m is the bin's ApcInverseTable
     *  reconstruct of the HitCounter's probability for h hits. */
    std::vector<double> iipLut;
};

namespace {

using PlanKey = ReconstructionPlan::Key;
using PlanPtr = std::shared_ptr<const ReconstructionPlan>;

unsigned
roundUpToMultiple(unsigned value, unsigned base)
{
    if (base == 0)
        return value;
    const unsigned rem = value % base;
    return rem == 0 ? value : value + (base - rem);
}

bool
sameBytes(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
             0);
}

/** Exact key equality: doubles compare by bit pattern, so -0.0 and
 *  0.0 (or two NaN payloads) never share a plan. */
bool
sameKey(const PlanKey &a, const PlanKey &b)
{
    return std::memcmp(&a.sigma, &b.sigma, sizeof(double)) == 0 &&
        a.bins == b.bins && a.trials == b.trials &&
        a.counterWidthBits == b.counterWidthBits &&
        sameBytes(a.binLevels, b.binLevels) &&
        sameBytes(a.analyticLevels, b.analyticLevels);
}

uint64_t
keyHash(const PlanKey &key)
{
    TraceKeyBuilder h;
    h.add(key.sigma)
        .add(static_cast<uint64_t>(key.bins))
        .add(static_cast<uint64_t>(key.trials))
        .add(static_cast<uint64_t>(key.counterWidthBits));
    for (double v : key.binLevels)
        h.add(v);
    for (double v : key.analyticLevels)
        h.add(v);
    return h.key().lo;
}

PlanPtr
buildPlan(std::shared_ptr<const PlanKey> key)
{
    auto plan = std::make_shared<ReconstructionPlan>();
    const PlanKey &k = *key;
    const std::size_t levels = k.binLevels.size() / k.bins;
    const std::size_t stride = static_cast<std::size_t>(k.trials) + 1;
    plan->iipLut.resize(static_cast<std::size_t>(k.bins) * stride);
    HitCounter counter(k.counterWidthBits);
    for (unsigned m = 0; m < k.bins; ++m) {
        // The bin's inverse-CDF table lives only while its row fills.
        const auto first = k.binLevels.begin() +
            static_cast<std::ptrdiff_t>(m * levels);
        const ApcInverseTable inverse(
            std::vector<double>(first,
                                first + static_cast<std::ptrdiff_t>(levels)),
            k.sigma);
        double *row = plan->iipLut.data() + m * stride;
        for (unsigned h = 0; h <= k.trials; ++h) {
            // The counter round trip yields the probability a
            // measurement's hit register reports for h hits,
            // including any width clamping.
            counter.reset();
            counter.recordBatch(h, k.trials);
            row[h] = inverse.reconstruct(counter.probability());
        }
    }
    plan->key = std::move(key);
    return plan;
}

/**
 * Process-wide interning of reconstruction plans (DESIGN.md §8). A
 * plan lives while any instrument holds it, and the registry keeps
 * the most recently acquired ones alive beyond that. Each key is
 * built once: later requesters for a key under construction wait for
 * that build, and the lock is never held while a plan builds, so
 * different keys build in parallel.
 */
class PlanRegistry
{
  public:
    PlanPtr acquire(PlanKey key);

  private:
    /** Plans kept alive after their last instrument is gone, most
     *  recent first. Enough for a study's nominal instrument to hand
     *  its plan to the lanes built after it dies and to the next
     *  campaign, and for a process alternating a few configurations
     *  not to rebuild each time; a constant, not a knob. */
    static constexpr std::size_t kRetainedPlans = 8;

    struct Slot
    {
        uint64_t hash = 0;
        std::shared_ptr<const PlanKey> key;
        std::weak_ptr<const ReconstructionPlan> plan; //!< once built
        std::shared_future<PlanPtr> building; //!< valid while building
    };

    std::mutex mutex_;
    std::vector<Slot> slots_;
    std::deque<PlanPtr> recent_;

    /** Make `plan` the most recent retained plan (caller holds
     *  mutex_). */
    void retain(const PlanPtr &plan);
};

PlanPtr
PlanRegistry::acquire(PlanKey key)
{
    const uint64_t hash = keyHash(key);
    std::promise<PlanPtr> promise;
    std::shared_ptr<const PlanKey> owned;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Forget plans that neither an instrument nor the retention
        // list holds any more.
        std::erase_if(slots_, [](const Slot &s) {
            return !s.building.valid() && s.plan.expired();
        });
        for (const Slot &slot : slots_) {
            if (slot.hash != hash || !sameKey(*slot.key, key))
                continue;
            if (PlanPtr plan = slot.plan.lock()) {
                retain(plan);
                return plan;
            }
            // Another thread is building this key: wait for it.
            const std::shared_future<PlanPtr> building = slot.building;
            lock.unlock();
            return building.get();
        }
        owned = std::make_shared<const PlanKey>(std::move(key));
        slots_.push_back({hash, owned, {}, promise.get_future().share()});
    }

    PlanPtr plan;
    try {
        plan = buildPlan(owned);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            std::erase_if(slots_,
                          [&](const Slot &s) { return s.key == owned; });
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Slot &slot : slots_) {
            if (slot.key == owned) {
                slot.plan = plan;
                slot.building = {};
                break;
            }
        }
        retain(plan);
    }
    promise.set_value(plan);
    return plan;
}

void
PlanRegistry::retain(const PlanPtr &plan)
{
    const auto it = std::find(recent_.begin(), recent_.end(), plan);
    if (it != recent_.end())
        recent_.erase(it);
    recent_.push_front(plan);
    if (recent_.size() > kRetainedPlans)
        recent_.pop_back();
}

PlanRegistry &
planRegistry()
{
    static PlanRegistry registry;
    return registry;
}

} // namespace

ITdr::ITdr(ItdrConfig config, Rng rng)
    : config_(config), rng_(rng),
      comparator_(config.comparator, rng_.fork(0x1001)),
      pll_(config.pll, rng_.fork(0x1002)),
      pdm_(config.pdm, config.pll.clockFrequency),
      coupler_(config.coupler),
      triggerGen_(config.triggerMode, rng_.fork(0x1003)),
      edge_(config.edgeAmplitude, config.edgeRiseTime, EdgeKind::Rising),
      trials_(roundUpToMultiple(std::max(config.trialsPerPhase, 1u),
                                pdm_.levelCount())),
      traceCache_(config.traceCacheCapacity),
      kernels_(&strobeKernels(config.simd))
{
    if (config.trialsPerPhase == 0)
        divot_fatal("iTDR trialsPerPhase must be >= 1");
    if (trials_ != config.trialsPerPhase) {
        // Warn once per instrument (not per process: a second iTDR
        // with a different rounding would otherwise be silently
        // inflated). Silent inflation made predictBudget and the
        // measured cost disagree until IipMeasurement started
        // carrying the effective count.
        divot_warn("iTDR trialsPerPhase %u rounded up to %u (a "
                   "multiple of the %u PDM reference levels); "
                   "IipMeasurement::trialsPerBin carries the "
                   "effective count",
                   config.trialsPerPhase, trials_, pdm_.levelCount());
    }
    if (config.selfCalibrate) {
        // Power-up self-calibration: estimate sigma and offset from
        // the real (noisy) comparator instead of trusting oracle
        // parameters.
        const double guess = config.comparator.noiseSigma > 0.0
            ? config.comparator.noiseSigma
            : 0.5e-3;
        NoiseCalibrator calibrator(guess, 50000);
        const NoiseCalibration result = calibrator.run(comparator_);
        if (result.valid) {
            calibratedSigma_ = result.sigma;
            offsetCorrection_ = result.offset;
        } else {
            divot_warn("iTDR self-calibration failed; falling back to "
                       "configured sigma");
        }
    }
}

double
ITdr::effectiveSigma() const
{
    return reconstructionSigma();
}

void
ITdr::attachTelemetry(Telemetry *telemetry, const std::string &prefix)
{
    if (telemetry == nullptr || !telemetry->enabled()) {
        telemetry_ = nullptr;
        return;
    }
    telemetry_ = telemetry;
    tmPrefix_ = prefix;
    Registry &reg = telemetry->registry();
    tmMeasurements_ = reg.counter(prefix + ".measurements");
    tmBins_ = reg.counter(prefix + ".bins");
    tmTriggers_ = reg.counter(prefix + ".triggers");
    tmEngineAnalytic_ = reg.counter(prefix + ".engine.analytic");
    tmEngineBatch_ = reg.counter(prefix + ".engine.batch");
    tmEngineScalar_ = reg.counter(prefix + ".engine.scalar");
    tmFallbacks_ = reg.counter(prefix + ".engine.fallbacks");
    tmKernelScalar_ = reg.counter(prefix + ".kernel.scalar");
    tmKernelAvx2_ = reg.counter(prefix + ".kernel.avx2");
    tmKernelNeon_ = reg.counter(prefix + ".kernel.neon");
    tmCacheHits_ = reg.counter(prefix + ".cache.hits");
    tmCacheMisses_ = reg.counter(prefix + ".cache.misses");
    tmCacheEvictions_ = reg.counter(prefix + ".cache.evictions");
    tmCacheLookups_ = reg.counter(prefix + ".cache.lookups");
    tmHealthFail_ = reg.counter(prefix + ".health.failed");
    tmSaturatedBins_ = reg.counter(prefix + ".health.saturated_bins");
    tmNonFiniteBins_ = reg.counter(prefix + ".health.nonfinite_bins");
    tmBudgetOverruns_ = reg.counter(prefix + ".health.budget_overruns");
    tmFaultsFired_ = reg.counter(prefix + ".faults.fired");
    tmCycles_ = reg.histogram(
        prefix + ".cycles",
        {8192, 16384, 32768, 65536, 131072, 262144});
    // Cache counters export deltas from this point on, so attaching
    // mid-life never double-counts history.
    tmCacheHitsSeen_ = traceCache_.hits();
    tmCacheMissesSeen_ = traceCache_.misses();
    tmCacheEvictionsSeen_ = traceCache_.evictions();
}

double
ITdr::reconstructionSigma() const
{
    if (calibratedSigma_ > 0.0)
        return calibratedSigma_;
    return config_.assumedNoiseSigma > 0.0 ? config_.assumedNoiseSigma
                                           : comparator_.noiseSigma();
}

void
ITdr::prepareBins(const TransmissionLine &line)
{
    if (bins_ != 0)
        return;  // bins are frozen after the first measurement so
                 // successive IIPs stay index-aligned
    window_ = config_.captureWindow > 0.0
        ? config_.captureWindow
        : 1.1 * line.roundTripDelay() + 3.0 * edge_.duration();
    bins_ = static_cast<unsigned>(
        std::ceil(window_ / pll_.phaseStep()));
    if (bins_ == 0)
        divot_fatal("iTDR capture window too short (%g s)", window_);

    acquirePlan();

    // Budget baseline for the health screen: expected cycles follow
    // from the trigger rate exactly as in predictBudget().
    const double trigger_rate =
        config_.triggerMode == TriggerMode::ClockLane ? 1.0 : 0.25;
    expectedCycles_ = static_cast<uint64_t>(std::ceil(
        static_cast<double>(bins_) * static_cast<double>(trials_) /
        trigger_rate));
}

bool
ITdr::recalibrate()
{
    const double guess = reconstructionSigma() > 0.0
        ? reconstructionSigma() : 0.5e-3;
    NoiseCalibrator calibrator(guess, 50000);
    const NoiseCalibration result = calibrator.run(comparator_);
    if (!result.valid) {
        divot_warn("iTDR recalibration failed to converge; keeping the "
                   "previous sigma/offset");
        return false;
    }
    calibratedSigma_ = result.sigma;
    offsetCorrection_ = result.offset;
    // The reconstruction table bakes in sigma: move to the plan of the
    // fresh estimate on the frozen bin grid.
    if (bins_ != 0)
        acquirePlan();
    return true;
}

void
ITdr::acquirePlan()
{
    PlanKey key;
    key.sigma = reconstructionSigma();
    key.bins = bins_;
    key.trials = trials_;
    key.counterWidthBits = config_.counterWidthBits;
    const unsigned levels = pdm_.levelCount();
    const std::size_t cells = static_cast<std::size_t>(bins_) * levels;
    key.binLevels.reserve(cells);
    for (unsigned m = 0; m < bins_; ++m) {
        const std::vector<double> at =
            pdm_.levelsAt(static_cast<double>(m) * pll_.phaseStep());
        key.binLevels.insert(key.binLevels.end(), at.begin(), at.end());
    }
    // The analytic engine's per-bin reference levels, kept for every
    // engine so Sampled and Binomial instruments of one design share
    // a plan. Trigger cycles only ever advance in whole measurements
    // of bins_ * trials_ clock-lane triggers, and trials_ is a
    // multiple of the Vernier period, so every bin always starts at
    // modulation phase 0: the level sequence seen at bin m is
    // measurement-invariant and can be frozen with the bin grid.
    const double t_clk = pll_.clockPeriod();
    key.analyticLevels.resize(cells);
    for (unsigned m = 0; m < bins_; ++m) {
        const double t0 = static_cast<double>(m) * pll_.phaseStep();
        for (unsigned j = 0; j < levels; ++j) {
            key.analyticLevels[static_cast<std::size_t>(m) * levels + j] =
                pdm_.referenceAt(static_cast<double>(j) * t_clk + t0);
        }
    }
    plan_ = planRegistry().acquire(std::move(key));
}

double
ITdr::captureSpanFor(const TransmissionLine &line) const
{
    return window_ > 0.0
        ? window_
        : 1.1 * line.roundTripDelay() + 3.0 * edge_.duration();
}

Waveform
ITdr::cleanDetectorTrace(const TransmissionLine &line) const
{
    return detectorTraceFor(line);
}

const Waveform &
ITdr::detectorTraceFor(const TransmissionLine &line) const
{
    const double span = captureSpanFor(line);
    if (config_.traceCacheCapacity == 0) {
        traceScratch_ = renderDetectorTrace(line, span);
        return traceScratch_;
    }
    // The key covers everything the render depends on that can change
    // between measurements: the line's electrical content (impedance
    // profile, terminations, velocity, loss — all rewritten by tamper
    // transforms and environment snapshots) plus the capture span.
    // Instrument-fixed parameters (edge, coupler, model) need no
    // keying because the cache lives inside this instrument.
    const TraceKey key = TraceKeyBuilder().add(line).add(span).key();
    if (const Waveform *hit = traceCache_.find(key))
        return *hit;
    return *traceCache_.insert(key, renderDetectorTrace(line, span));
}

Waveform
ITdr::renderDetectorTrace(const TransmissionLine &line, double span) const
{
    if (config_.model == ReflectionModel::Lattice) {
        LatticeSimulator sim(line);
        TdrTrace trace = sim.probe(edge_, span);
        return coupler_.detectorOutput(trace.reflection, trace.incident);
    }
    BornTdrModel born(line);
    Waveform refl = born.probe(edge_, 0.0, span);
    // Synthesize the incident wave the coupler leaks.
    const double launch_gain = line.impedanceAt(0) /
        (line.sourceImpedance() + line.impedanceAt(0));
    const double edge_center = 1.5 * edge_.duration();
    Waveform inc = Waveform::zeros(refl.dt(), refl.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
        inc[i] = launch_gain *
            edge_.deviationAt(inc.timeAt(i) - edge_center);
    }
    return coupler_.detectorOutput(refl, inc);
}

Waveform
ITdr::idealIip(const TransmissionLine &line)
{
    prepareBins(line);
    const Waveform &trace = detectorTraceFor(line);
    const double tau = pll_.phaseStep();
    Waveform out = Waveform::zeros(tau, bins_);
    for (unsigned m = 0; m < bins_; ++m)
        out[m] = trace.valueAt(static_cast<double>(m) * tau);
    return out;
}

IipMeasurement
ITdr::measure(const TransmissionLine &line, NoiseSource *extra_noise)
{
    prepareBins(line);
    const Waveform &trace = detectorTraceFor(line);
    const ReconstructionPlan &plan = *plan_;

    const double tau = pll_.phaseStep();
    const double t_clk = pll_.clockPeriod();
    const uint64_t cycles_before = triggerGen_.cyclesElapsed();
    const uint64_t triggers_before = triggerGen_.triggersProduced();

    // One span per measurement, clocked by the instrument's own
    // trigger-cycle schedule (deterministic at any thread count).
    SpanScope span;
    uint64_t span_ordinal = 0;
    if (telemetry_ != nullptr) {
        span_ordinal = tmOrdinal_++;
        span = telemetry_->tracer().open(
            tmPrefix_ + ".measure", tmPrefix_,
            static_cast<double>(cycles_before) * t_clk, span_ordinal);
    }

    Waveform iip = Waveform::zeros(tau, bins_);

    // Resolve this measurement's fault frame (a pure function of the
    // injector's measurement index, so campaigns stay deterministic at
    // any thread count).
    FaultFrame fault;
    if (faultInjector_ != nullptr)
        fault = faultInjector_->nextFrame();
    const double two_pi = 6.283185307179586;
    unsigned saturated_bins = 0;
    unsigned non_finite_bins = 0;

    // Per-bin fault decisions, drawn up front bin by bin in one order:
    // the PLL dropout, then the counter flip and its bit. binRng is
    // drawn nowhere else, so every engine sees the same decisions. A
    // failed ETS phase step leaves the sampling offset lagging the
    // nominal grid; lags accumulate over the sweep.
    sampleTimes_.resize(bins_);
    flipMasks_.resize(bins_);
    double phase_lag = 0.0;
    for (unsigned m = 0; m < bins_; ++m) {
        if (fault.pllDropoutRate > 0.0 &&
            fault.binRng.bernoulli(fault.pllDropoutRate)) {
            phase_lag += tau;
        }
        sampleTimes_[m] =
            std::max(0.0, static_cast<double>(m) * tau - phase_lag);
        flipMasks_[m] = 0;
        if (fault.counterFlipRate > 0.0 &&
            fault.binRng.bernoulli(fault.counterFlipRate)) {
            flipMasks_[m] = 1u << static_cast<unsigned>(
                fault.binRng.uniformInt(config_.counterWidthBits));
        }
    }

    // A signal-input bias (offset drift + EMI burst evaluated at the
    // bin's nominal time, loop-invariant within the bin) before
    // strobing.
    auto faultBias = [&](double t0) {
        double bias = fault.comparatorOffset;
        if (fault.emiAmplitude > 0.0) {
            bias += fault.emiAmplitude *
                std::sin(two_pi * fault.emiFrequency * t0 +
                         fault.emiPhase);
        }
        return bias;
    };
    // Every engine finishes a bin here: post-count corruption of the
    // hit register (stuck comparator output; a bit flip, read as a
    // full count when it lands past trials_), then the plan's
    // reconstruction of the count.
    const std::size_t stride = static_cast<std::size_t>(trials_) + 1;
    auto finishBin = [&](unsigned m, unsigned hits) {
        if (fault.comparatorStuck >= 0)
            hits = fault.comparatorStuck == 1 ? trials_ : 0;
        if (flipMasks_[m] != 0)
            hits = std::min(hits ^ flipMasks_[m], trials_);
        if (hits == 0 || hits >= trials_)
            ++saturated_bins;
        double v = plan.iipLut[static_cast<std::size_t>(m) * stride +
                               hits] -
            offsetCorrection_;
        if (!std::isfinite(v)) {
            ++non_finite_bins;
            v = 0.0;
        }
        iip[m] = v;
    };

    const bool no_jitter = config_.pll.jitterRms <= 0.0;
    // Both fast paths need a loop-invariant signal (no jitter, no
    // per-trigger interference), arithmetic trigger cycles (clock
    // lane), statistically independent strobes (no metastable band),
    // and a counter that cannot saturate mid-batch. The analytic
    // engine additionally replaces the per-trial draws with exact
    // binomials (see StrobeModel); sampled configurations use the
    // draw-compatible block batch.
    const bool fast_eligible = no_jitter && extra_noise == nullptr &&
        config_.triggerMode == TriggerMode::ClockLane &&
        comparator_.params().metastableBand == 0.0 &&
        trials_ < (1ull << config_.counterWidthBits);
    const bool analytic =
        config_.strobeModel == StrobeModel::Binomial && fast_eligible;
    const bool batch = !analytic && config_.batchedStrobes &&
        fast_eligible;
    if (config_.strobeModel == StrobeModel::Binomial && !analytic) {
        if (telemetry_ != nullptr)
            tmFallbacks_.add();
        if (!analyticFallbackWarned_) {
            analyticFallbackWarned_ = true;
            divot_warn("iTDR analytic strobe engine unavailable for "
                       "this configuration (jitter, extra noise, "
                       "non-clock triggers, metastable band, or "
                       "counter saturation); falling back to sampled "
                       "strobes");
            if (telemetry_ != nullptr) {
                // One event per instrument naming the blocking
                // condition; the counter above tallies every
                // fallen-back measurement.
                const char *reason = !no_jitter ? "jitter"
                    : extra_noise != nullptr ? "extra-noise"
                    : config_.triggerMode != TriggerMode::ClockLane
                        ? "data-triggers"
                    : comparator_.params().metastableBand != 0.0
                        ? "metastable-band"
                    : "counter-saturation";
                TelemetryEvent event;
                event.time = static_cast<double>(cycles_before) * t_clk;
                event.ordinal = span_ordinal;
                event.kind = "itdr.fallback";
                event.tag = tmPrefix_;
                event.detail = reason;
                telemetry_->events().record(std::move(event));
            }
        }
    }
    if (telemetry_ != nullptr) {
        (analytic ? tmEngineAnalytic_
                  : batch ? tmEngineBatch_ : tmEngineScalar_).add();
    }

    pll_.resetPhase();
    if (analytic) {
        // O(levels) analytic path: each bin's hit count is drawn as
        // sum_j Binomial(trials/levels, p_j) over the bin's frozen
        // Vernier levels — no per-trial work at all — in whole-sweep
        // stages (gather signal levels, one probability-grid kernel,
        // one binomial-lane kernel, reduce). The trigger generator
        // still advances arithmetically so cycle accounting and fault
        // frames are identical to the sampled engine.
        const unsigned levels = pdm_.levelCount();
        soa_.resize(bins_, levels);
        for (unsigned m = 0; m < bins_; ++m) {
            const double t0 = static_cast<double>(m) * tau;
            triggerGen_.advanceClockTriggers(trials_);
            soa_.vSig[m] = trace.valueAt(sampleTimes_[m]) + faultBias(t0);
            pll_.stepPhase();
        }
        comparator_.strobeAnalyticSoA(*kernels_,
                                      plan.key->analyticLevels.data(),
                                      bins_, levels, trials_ / levels,
                                      soa_);
        for (unsigned m = 0; m < bins_; ++m) {
            // Independent LUT loads; the prefetch keeps the sweep from
            // serializing on the table's cache misses.
            if (m + 8 < bins_) {
                __builtin_prefetch(
                    &plan.iipLut[static_cast<std::size_t>(m + 8) * stride +
                                 soa_.hits[m + 8]]);
            }
            finishBin(m, soa_.hits[m]);
        }
        if (telemetry_ != nullptr) {
            (kernels_->target == SimdTarget::Avx2 ? tmKernelAvx2_
             : kernels_->target == SimdTarget::Neon
                 ? tmKernelNeon_
                 : tmKernelScalar_)
                .add();
        }
    } else if (batch) {
        const unsigned levels = pdm_.levelCount();
        refScratch_.resize(trials_);
        periodScratch_.resize(levels);
        for (unsigned m = 0; m < bins_; ++m) {
            const double t0 = static_cast<double>(m) * tau;
            const uint64_t cycle0 =
                triggerGen_.advanceClockTriggers(trials_);
            // The Vernier reference sequence is periodic in the trial
            // index with period `levels` (trials_ is a multiple, so
            // every level weighs equally): evaluate the triangle wave
            // `levels` times instead of trials_ times.
            for (unsigned j = 0; j < levels; ++j) {
                periodScratch_[j] = pdm_.referenceAt(
                    static_cast<double>(cycle0 + j) * t_clk + t0);
            }
            // Bit-exact copies, so the sampled engine's byte-identity
            // contract survives any dispatch target.
            kernels_->tilePeriodic(periodScratch_.data(), levels,
                                   refScratch_.data(), trials_);
            const double v_sig =
                trace.valueAt(sampleTimes_[m]) + faultBias(t0);
            finishBin(m, comparator_.strobeBatch(v_sig, refScratch_.data(),
                                                 trials_, *kernels_));
            pll_.stepPhase();
        }
    } else {
        HitCounter counter(config_.counterWidthBits);
        for (unsigned m = 0; m < bins_; ++m) {
            const double t0 = static_cast<double>(m) * tau;
            const double t_sig0 = sampleTimes_[m];
            const double bias = faultBias(t0);
            // Without jitter the signal lookup is loop-invariant
            // (the PDM reference still varies per trigger through
            // t_abs): hoist it out of the trial loop.
            const double v_fixed =
                no_jitter ? trace.valueAt(t_sig0) + bias : 0.0;
            counter.reset();
            for (unsigned k = 0; k < trials_; ++k) {
                const uint64_t cycle = triggerGen_.nextTriggerCycle();
                // Strobe jitter shifts the sampling instant relative
                // to the probe edge.
                double jitter = 0.0;
                if (!no_jitter)
                    jitter = rng_.gaussian(0.0, config_.pll.jitterRms);
                const double t_abs =
                    static_cast<double>(cycle) * t_clk + t0 + jitter;
                double v_sig = no_jitter
                    ? v_fixed : trace.valueAt(t_sig0 + jitter) + bias;
                if (extra_noise != nullptr)
                    v_sig += extra_noise->sampleAt(t_abs);
                const double v_ref = pdm_.referenceAt(t_abs);
                counter.record(comparator_.strobe(v_sig, v_ref));
            }
            finishBin(m, static_cast<unsigned>(counter.hits()));
            pll_.stepPhase();
        }
    }

    IipMeasurement out;
    out.iip = std::move(iip);
    uint64_t cycles = triggerGen_.cyclesElapsed() - cycles_before;
    if (fault.cycleOverrunFactor != 1.0) {
        // The fault consumes real bus time (arbitration storms, retry
        // loops) without producing extra samples.
        cycles = static_cast<uint64_t>(std::llround(
            static_cast<double>(cycles) * fault.cycleOverrunFactor));
    }
    out.busCycles = cycles;
    out.triggers = triggerGen_.triggersProduced() - triggers_before;
    out.duration = static_cast<double>(out.busCycles) * t_clk;
    out.trialsPerBin = trials_;

    out.health.saturatedBinFraction =
        static_cast<double>(saturated_bins) /
        static_cast<double>(bins_);
    out.health.nonFiniteBins = non_finite_bins;
    out.health.budgetOverrun = expectedCycles_ > 0 &&
        static_cast<double>(out.busCycles) >
            config_.healthBudgetTolerance *
            static_cast<double>(expectedCycles_);
    if (config_.healthScreens) {
        out.health.ok = out.health.saturatedBinFraction <=
                config_.healthSaturationLimit &&
            out.health.nonFiniteBins == 0 && !out.health.budgetOverrun;
    }

    if (telemetry_ != nullptr) {
        tmMeasurements_.add();
        tmBins_.add(bins_);
        tmTriggers_.add(out.triggers);
        tmCycles_.record(out.busCycles);
        // Cache stats arrive as deltas so several instruments sharing
        // one prefix still sum commutatively (hits + misses ==
        // lookups by construction, an invariant the property harness
        // checks).
        const uint64_t cache_hits = traceCache_.hits();
        const uint64_t cache_misses = traceCache_.misses();
        const uint64_t cache_evictions = traceCache_.evictions();
        tmCacheHits_.add(cache_hits - tmCacheHitsSeen_);
        tmCacheMisses_.add(cache_misses - tmCacheMissesSeen_);
        tmCacheEvictions_.add(cache_evictions - tmCacheEvictionsSeen_);
        tmCacheLookups_.add((cache_hits - tmCacheHitsSeen_) +
                            (cache_misses - tmCacheMissesSeen_));
        tmCacheHitsSeen_ = cache_hits;
        tmCacheMissesSeen_ = cache_misses;
        tmCacheEvictionsSeen_ = cache_evictions;
        if (fault.any())
            tmFaultsFired_.add();
        tmSaturatedBins_.add(saturated_bins);
        tmNonFiniteBins_.add(non_finite_bins);
        if (out.health.budgetOverrun)
            tmBudgetOverruns_.add();
        const double t_end =
            static_cast<double>(cycles_before) * t_clk + out.duration;
        if (!out.health.ok) {
            tmHealthFail_.add();
            char detail[96];
            std::snprintf(detail, sizeof(detail),
                          "saturatedBins=%u nonFiniteBins=%u "
                          "budgetOverrun=%d",
                          saturated_bins, non_finite_bins,
                          out.health.budgetOverrun ? 1 : 0);
            TelemetryEvent event;
            event.time = t_end;
            event.ordinal = span_ordinal;
            event.kind = "health";
            event.tag = tmPrefix_;
            event.detail = detail;
            telemetry_->events().record(std::move(event));
        }
        span.close(t_end, out.busCycles);
    }
    return out;
}

} // namespace divot
