/**
 * @file
 * The integrated time-domain reflectometer (iTDR) — the paper's core
 * hardware contribution, assembled from the APC / PDM / ETS pieces.
 *
 * One measurement pass works exactly like the prototype:
 *
 *   for each ETS phase offset m (0 .. M-1, step tau):        [ETS]
 *       for each of K triggers (probe edges on the bus):
 *           strobe the comparator at offset m*tau after the
 *           edge, against the PDM triangle reference          [PDM]
 *           count 1s in the hit counter                       [APC]
 *       reconstruct V_sig(m*tau) from the hit probability
 *       through the inverse mixture CDF
 *
 * The output is the IIP estimate: the back-reflection voltage profile
 * versus round-trip time on a tau-spaced grid, plus the cycle/time
 * accounting that substantiates the paper's ~50 us claim.
 */

#ifndef DIVOT_ITDR_ITDR_HH
#define DIVOT_ITDR_ITDR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analog/comparator.hh"
#include "analog/coupler.hh"
#include "analog/pll.hh"
#include "fault/fault.hh"
#include "itdr/health.hh"
#include "itdr/kernels/kernels.hh"
#include "itdr/kernels/soa.hh"
#include "itdr/pdm.hh"
#include "itdr/trace_cache.hh"
#include "itdr/trigger.hh"
#include "signal/edge.hh"
#include "signal/noise.hh"
#include "signal/waveform.hh"
#include "telemetry/telemetry.hh"
#include "txline/txline.hh"
#include "util/rng.hh"

namespace divot {

/** Which physics backend renders the clean reflection trace. */
enum class ReflectionModel { Born, Lattice };

/**
 * How the APC hit counts are produced (DESIGN.md §11).
 *
 * Sampled draws every comparator strobe individually (or in draw-
 * compatible batches) — the reference model, bit-stable across
 * releases. Binomial samples the sufficient statistic instead: the
 * periodic Vernier reference gives each bin exactly `levels` distinct
 * operating points with trials/levels i.i.d. strobes each, so the
 * bin's hit count is distributed as
 * sum_j Binomial(trials/levels, Phi((V_sig + offset - ref_j)/sigma))
 * and can be drawn with `levels` binomials — O(levels) instead of
 * O(trials) hot-loop work, statistically equivalent but on a
 * different random stream. Configurations the analytic decomposition
 * cannot serve (PLL jitter, extra noise sources, data-lane triggers,
 * a metastable band, counter saturation) fall back to Sampled.
 */
enum class StrobeModel { Sampled, Binomial };

/** Full iTDR configuration. */
struct ItdrConfig
{
    PllParams pll;                  //!< clock + ETS phase stepping
    ComparatorParams comparator;    //!< analog front-end
    PdmConfig pdm;                  //!< reference modulation
    CouplerParams coupler;          //!< reflection pick-off
    TriggerMode triggerMode = TriggerMode::ClockLane;
    unsigned trialsPerPhase = 170;  //!< K (rounded up to the PDM level
                                    //!< count so levels weigh evenly)
    double captureWindow = 0.0;     //!< s; 0 => round trip + margin
    double edgeAmplitude = 0.8;     //!< probe edge swing, volts
    double edgeRiseTime = 25e-12;   //!< probe edge 10-90 %, seconds
    unsigned counterWidthBits = 12; //!< hit-counter register width
    double assumedNoiseSigma = 0.0; //!< reconstruction sigma; 0 => use
                                    //!< the comparator's true sigma
    bool selfCalibrate = false;     //!< run a power-up noise
                                    //!< self-calibration and use the
                                    //!< *estimated* sigma and offset
                                    //!< for reconstruction instead of
                                    //!< oracle values (see
                                    //!< itdr/calibrate.hh)
    ReflectionModel model = ReflectionModel::Born;
    bool batchedStrobes = true;     //!< use the block-strobe fast path
                                    //!< when the configuration allows
                                    //!< (clock lane, no jitter); false
                                    //!< forces the scalar per-trigger
                                    //!< loop (reference / ablation)
    StrobeModel strobeModel = StrobeModel::Sampled;
                                    //!< Sampled (default, bit-stable)
                                    //!< or the exact-binomial analytic
                                    //!< engine (see StrobeModel docs);
                                    //!< ineligible configurations fall
                                    //!< back to Sampled with a one-time
                                    //!< per-instance warning
    SimdTarget simd = SimdTarget::Auto; //!< strobe-kernel dispatch for
                                    //!< the analytic engine's SoA
                                    //!< sweep (DESIGN.md §13):
                                    //!< resolved once at construction
                                    //!< (DIVOT_SIMD overrides; Auto =>
                                    //!< best supported; unsupported =>
                                    //!< scalar with a warning)
    std::size_t traceCacheCapacity = 8; //!< retained clean detector
                                    //!< traces, content-keyed + LRU
                                    //!< (see itdr/trace_cache.hh);
                                    //!< 0 disables caching
    bool healthScreens = true;      //!< run the instrument-health
                                    //!< screens on every measurement
    double healthSaturationLimit = 0.5; //!< max fraction of bins at
                                    //!< probability exactly 0 or 1
                                    //!< before the measurement is
                                    //!< declared unhealthy
    double healthBudgetTolerance = 1.5; //!< bus-cycle overrun factor
                                    //!< vs the predicted budget before
                                    //!< the 50 us envelope is declared
                                    //!< blown
};

/** One measured IIP with its cost accounting. (The health record
 *  type lives in itdr/health.hh so verdict consumers can carry it
 *  without the instrument.) */
struct IipMeasurement
{
    Waveform iip;            //!< reconstructed V_sig vs round-trip time
    uint64_t busCycles = 0;  //!< bus clock cycles consumed
    uint64_t triggers = 0;   //!< probe edges used
    double duration = 0.0;   //!< wall-clock seconds on the bus
    unsigned trialsPerBin = 0; //!< effective K after PDM-level
                               //!< round-up — matches
                               //!< predictBudget().trialsPerBin, so
                               //!< budget accounting can reconcile
                               //!< against what actually ran
    MeasurementHealth health;  //!< instrument self-assessment
};

/**
 * The reconstruction table (one row of reconstructed voltages per
 * bin, one entry per possible hit count) and the analytic engine's
 * frozen reference levels of one instrument design on one bin grid,
 * whichever strobe engine measures. Defined in itdr.cc: instruments
 * acquire it from a process-wide registry keyed by the exact inputs
 * it is built from, share it read-only, and never mutate it
 * (DESIGN.md §8).
 */
struct ReconstructionPlan;

/**
 * The iTDR instrument bound to one bus interface.
 */
class ITdr
{
  public:
    /**
     * @param config instrument configuration
     * @param rng    dedicated random stream (noise, jitter, trigger
     *               data)
     */
    ITdr(ItdrConfig config, Rng rng);

    /**
     * Measure the IIP of a line.
     *
     * @param line        the line as it physically exists during this
     *                    measurement (tampered / environment-shifted
     *                    copies welcome)
     * @param extra_noise optional additional interference injected at
     *                    the comparator input (EMI model); may be null
     */
    IipMeasurement measure(const TransmissionLine &line,
                           NoiseSource *extra_noise = nullptr);

    /**
     * The noise-free detector trace the comparator samples — the
     * physics ground truth (exposed for tests and benches).
     */
    Waveform cleanDetectorTrace(const TransmissionLine &line) const;

    /**
     * The ideal (noise-free) IIP on the instrument's ETS bin grid:
     * what an infinite-trial measurement would converge to. Used to
     * compute the nominal design response subtracted during
     * fingerprint extraction, and by convergence tests.
     */
    Waveform idealIip(const TransmissionLine &line);

    /** @return number of ETS phase bins per measurement. */
    unsigned phaseBins() const { return bins_; }

    /** @return trials per phase bin actually used (K). */
    unsigned trialsPerPhase() const { return trials_; }

    /** @return instrument configuration. */
    const ItdrConfig &config() const { return config_; }

    /** @return the probe edge shape. */
    const EdgeShape &edge() const { return edge_; }

    /** @return the sigma used for reconstruction (after any
     *  self-calibration). */
    double effectiveSigma() const;

    /** @return the offset correction applied to reconstructions. */
    double offsetCorrection() const { return offsetCorrection_; }

    /** @return the reflection-trace cache (hit/miss accounting). */
    const TraceCache &traceCache() const { return traceCache_; }

    /**
     * Attach a fault injector: every subsequent measure() call asks it
     * for the FaultFrame of the next measurement index and applies the
     * resolved corruptions during the ETS sweep. Pass nullptr to
     * detach. The injector is not owned and must outlive the iTDR.
     */
    void attachFaultInjector(FaultInjector *injector)
    {
        faultInjector_ = injector;
    }

    /** @return the attached fault injector (nullptr when none). */
    FaultInjector *faultInjector() const { return faultInjector_; }

    /**
     * Re-run the power-up noise self-calibration against the live
     * comparator and switch to the reconstruction plan of the fresh
     * sigma/offset estimates (shared plans are never rebuilt in
     * place, so other instruments are unaffected). This is the
     * Quarantine-recovery hook: after an unhealthy streak the
     * Authenticator re-baselines the instrument before trusting it
     * again.
     *
     * @return true when the calibration converged and was applied
     */
    bool recalibrate();

    /**
     * @return the reconstruction plan measure() reads: null until the
     *  first measure() or idealIip() freezes the bin grid, then shared
     *  with every instrument whose plan inputs (sigma, bin grid,
     *  effective trials, counter width, reference levels) are equal,
     *  whichever strobe engine it runs.
     */
    const std::shared_ptr<const ReconstructionPlan> &
    reconstructionPlan() const
    {
        return plan_;
    }

    /** @return predicted bus cycles per measurement (0 until the
     *  first measure() freezes the bin grid). */
    uint64_t expectedCycles() const { return expectedCycles_; }

    /**
     * Attach a telemetry sink: subsequent measure() calls account
     * engine choice, bins/triggers/cycles, cache hit/miss deltas,
     * health screen outcomes, and fired faults under `prefix` (e.g.
     * "itdr.bus0w1") and emit one span per measurement stamped with
     * the instrument's own trigger-cycle clock. Pass nullptr (or a
     * disabled Telemetry) to detach; the detached cost is one branch
     * per measurement. Not owned; must outlive the iTDR.
     */
    void attachTelemetry(Telemetry *telemetry, const std::string &prefix);

    /** @return the attached telemetry sink (nullptr when none). */
    Telemetry *telemetry() const { return telemetry_; }

    /** @return the resolved strobe-kernel set this instrument runs
     *  (fixed at construction; see ItdrConfig::simd). */
    const StrobeKernels &kernels() const { return *kernels_; }

  private:
    ItdrConfig config_;
    Rng rng_;
    Comparator comparator_;
    PhaseLockedLoop pll_;
    PdmSchedule pdm_;
    Coupler coupler_;
    TriggerGenerator triggerGen_;
    EdgeShape edge_;
    unsigned trials_;
    unsigned bins_ = 0;
    double window_ = 0.0;
    double calibratedSigma_ = 0.0;
    double offsetCorrection_ = 0.0;
    FaultInjector *faultInjector_ = nullptr;
    uint64_t expectedCycles_ = 0;

    /** Shared reconstruction tables of the frozen bin grid, acquired
     *  by prepareBins and swapped by recalibrate. */
    std::shared_ptr<const ReconstructionPlan> plan_;

    /** Content-keyed cache of rendered clean detector traces. */
    mutable TraceCache traceCache_;
    /** Uncached render target when the cache is disabled. */
    mutable Waveform traceScratch_;
    /** Per-bin reference schedule expanded for one strobe batch. */
    std::vector<double> refScratch_;
    /** One Vernier period of reference levels (levelCount() values),
     *  reused across bins so measure() allocates nothing. */
    std::vector<double> periodScratch_;
    /** Per-bin strobe offset after the fault frame's PLL dropouts. */
    std::vector<double> sampleTimes_;
    /** Per-bin hit-register bits the fault frame flips (0: none). */
    std::vector<unsigned> flipMasks_;
    /** One-time fallback warning latch (per instrument). */
    bool analyticFallbackWarned_ = false;
    /** Resolved strobe kernels (never null; set in the ctor). */
    const StrobeKernels *kernels_ = nullptr;
    /** SoA arena of the analytic sweep. */
    StrobeSoA soa_;

    /** @name Telemetry plumbing (inert until attachTelemetry). */
    ///@{
    Telemetry *telemetry_ = nullptr;
    std::string tmPrefix_;
    Counter tmMeasurements_;
    Counter tmBins_;
    Counter tmTriggers_;
    Counter tmEngineAnalytic_;
    Counter tmEngineBatch_;
    Counter tmEngineScalar_;
    Counter tmFallbacks_;
    Counter tmKernelScalar_;
    Counter tmKernelAvx2_;
    Counter tmKernelNeon_;
    Counter tmCacheHits_;
    Counter tmCacheMisses_;
    Counter tmCacheEvictions_;
    Counter tmCacheLookups_;
    Counter tmHealthFail_;
    Counter tmSaturatedBins_;
    Counter tmNonFiniteBins_;
    Counter tmBudgetOverruns_;
    Counter tmFaultsFired_;
    HistogramMetric tmCycles_;
    /** Cache totals at the last telemetry flush, so per-measurement
     *  deltas (not gauges) feed the shared counters and lanes sharing
     *  a prefix still sum commutatively. */
    uint64_t tmCacheHitsSeen_ = 0;
    uint64_t tmCacheMissesSeen_ = 0;
    uint64_t tmCacheEvictionsSeen_ = 0;
    /** Per-instrument measurement ordinal for span records. */
    uint64_t tmOrdinal_ = 0;
    ///@}

    void prepareBins(const TransmissionLine &line);
    double reconstructionSigma() const;

    /** Point plan_ at the plan of the current sigma on the frozen bin
     *  grid, building it only when no instrument holds or the
     *  registry retains one. */
    void acquirePlan();

    /** Render the clean trace (no cache). */
    Waveform renderDetectorTrace(const TransmissionLine &line,
                                 double span) const;

    /** Cache-aware trace lookup; reference valid until next call. */
    const Waveform &detectorTraceFor(const TransmissionLine &line) const;

    /** Capture span for a line (window_ once bins are frozen). */
    double captureSpanFor(const TransmissionLine &line) const;
};

} // namespace divot

#endif // DIVOT_ITDR_ITDR_HH
