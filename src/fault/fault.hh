/**
 * @file
 * Deterministic fault-injection plans for instrument and storage
 * components.
 *
 * The monitoring loop's value is that it keeps authenticating while
 * the system runs, which means it must survive the faults real
 * deployments throw at it — comparator drift, PLL glitches, counter
 * bit flips, corrupted EPROM calibration, EMI bursts — without either
 * crashing the memory system or screaming false tamper alarms. This
 * module provides the *attacker-free* half of that story: a schedule
 * of instrument faults (`FaultPlan`) and a deterministic sampler
 * (`FaultInjector`) that resolves, for each measurement the iTDR
 * performs, exactly which corruptions apply.
 *
 * Determinism contract: every random decision derives from
 * `Rng::forkStable(measurement index)` — a pure function of the
 * injector's seed stream and the index, never of draw order or thread
 * timing — so fault campaigns reproduce bit-for-bit at any thread
 * count, riding the same parallel engine as the clean studies.
 */

#ifndef DIVOT_FAULT_FAULT_HH
#define DIVOT_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace divot {

/** The fault taxonomy (see DESIGN.md §9 for the full table). */
enum class FaultKind
{
    ComparatorStuckLow,   //!< comparator output wedged at 0
    ComparatorStuckHigh,  //!< comparator output wedged at 1
    ComparatorOffsetDrift, //!< static offset added to the signal input
    PllPhaseDropout,      //!< ETS phase step randomly fails to advance
    CounterBitFlip,       //!< hit-counter register bit flips
    EmiBurst,             //!< transient sinusoidal interference burst
    BudgetOverrun,        //!< measurement consumes extra bus cycles
    EpromCorruption,      //!< calibration-store byte corruption

    /** @name Storage fault cells (enrollment-database IO events). */
    ///@{
    StorageTornWrite,     //!< power cut mid-write: only a prefix lands
    StorageCrash,         //!< power cut at a chosen commit point
    StorageBitRot,        //!< stuck-at bit rot in a written file
    StorageTruncation,    //!< shard/journal file loses its tail
    ///@}
};

/**
 * Where a StorageCrash power cut lands relative to one store IO
 * operation (see DESIGN.md §14.4 for the crash matrix).
 */
enum class StorageCrashPoint
{
    BeforeWrite = 0,  //!< nothing of this operation reaches the medium
    AfterJournal = 1, //!< journal entry durable, commit never ran
    BeforeCommit = 2, //!< temp image written, rename never ran
    AfterCommit = 3,  //!< operation durable; process dies right after
};

/** One scheduled fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::EmiBurst;
    uint64_t firstMeasurement = 0; //!< first affected measurement index
    uint64_t measurements = 1;     //!< affected count; 0 => forever
    double magnitude = 0.0;        //!< kind-specific strength:
                                   //!< volts (offset/EMI), probability
                                   //!< per bin (dropout/bit flip),
                                   //!< cycle factor (overrun), bytes
                                   //!< to flip (EPROM)
    double frequency = 25e6;       //!< EMI burst frequency, Hz
};

/**
 * A reproducible schedule of faults, indexed by the owning
 * instrument's measurement counter (each `ITdr::measure` call is one
 * index; `EpromCorruption` events are indexed by the caller's own
 * event counter instead).
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Append an arbitrary spec. */
    FaultPlan &add(FaultSpec spec);

    /** @name Convenience builders (all return *this for chaining). */
    ///@{
    FaultPlan &comparatorStuck(uint64_t first, uint64_t n, bool high);
    FaultPlan &offsetDrift(uint64_t first, uint64_t n, double volts);
    FaultPlan &pllDropout(uint64_t first, uint64_t n, double rate);
    FaultPlan &counterBitFlip(uint64_t first, uint64_t n, double rate);
    FaultPlan &emiBurst(uint64_t first, uint64_t n, double volts,
                        double hz = 25e6);
    FaultPlan &budgetOverrun(uint64_t first, uint64_t n, double factor);
    FaultPlan &epromCorruption(uint64_t event, double bytes = 1.0);

    /** @name Storage cells, indexed by the store's IO-event counter. */
    ///@{
    /** Power cut mid-write at IO event `event`: only `fraction` of the
     *  payload reaches the medium. */
    FaultPlan &storageTornWrite(uint64_t event, double fraction = 0.5);
    /** Power cut at `point` of IO event `event`. */
    FaultPlan &storageCrash(uint64_t event,
                            StorageCrashPoint point =
                                StorageCrashPoint::AfterJournal);
    /** Stuck-at bit rot: force `bits` deterministic bits of the file
     *  written at IO event `event` (n events from `event` on). */
    FaultPlan &storageBitRot(uint64_t event, uint64_t n, double bits);
    /** Truncate the file written at IO event `event` to keep the
     *  leading `keepFraction` of its bytes. */
    FaultPlan &storageTruncation(uint64_t event,
                                 double keepFraction = 0.5);
    ///@}

    /** @return all scheduled specs. */
    const std::vector<FaultSpec> &specs() const { return specs_; }

    /** @return true when nothing is scheduled. */
    bool empty() const { return specs_.empty(); }

    /**
     * Seed for fault campaigns: the DIVOT_FAULT_SEED environment
     * variable when set to an integer, otherwise a fixed constant.
     */
    static uint64_t defaultSeed();

  private:
    std::vector<FaultSpec> specs_;
};

/**
 * The fault effects resolved for one measurement. The iTDR applies
 * these during its ETS sweep; `binRng` carries the dedicated stream
 * for per-bin decisions (dropouts, bit flips) so in-measurement
 * randomness is a pure function of the measurement index.
 */
struct FaultFrame
{
    int comparatorStuck = -1;      //!< -1 none, 0/1 forced output
    double comparatorOffset = 0.0; //!< volts added to the signal input
    double pllDropoutRate = 0.0;   //!< per-bin phase-step failure prob
    double counterFlipRate = 0.0;  //!< per-bin register-flip prob
    double emiAmplitude = 0.0;     //!< burst amplitude, volts
    double emiFrequency = 0.0;     //!< burst frequency, Hz
    double emiPhase = 0.0;         //!< burst phase, radians
    double cycleOverrunFactor = 1.0; //!< multiplies consumed cycles
    Rng binRng{0};                 //!< per-bin decision stream

    /** @return true when any instrument fault is active. */
    bool any() const;
};

/**
 * The storage-fault effects resolved for one enrollment-database IO
 * event (journal append, shard commit, checkpoint). Like FaultFrame,
 * a pure function of (injector seed, event index): campaigns hit the
 * same byte of the same file no matter the thread count or how many
 * unrelated draws happened in between.
 */
struct StorageFault
{
    bool torn = false;        //!< write only a prefix, then power cut
    double tornFraction = 1.0; //!< fraction of bytes that land
    bool crash = false;       //!< power cut at `crashPoint`
    StorageCrashPoint crashPoint = StorageCrashPoint::AfterJournal;
    uint64_t bitRotBits = 0;  //!< stuck-at bits to force post-write
    bool truncate = false;    //!< chop the written file's tail
    double truncateKeep = 1.0; //!< fraction of bytes kept
    Rng rotRng{0};            //!< stream for bit positions / levels

    /** @return true when any storage fault applies to this event. */
    bool any() const
    {
        return torn || crash || bitRotBits > 0 || truncate;
    }
};

/**
 * Samples a FaultPlan deterministically per measurement.
 */
class FaultInjector
{
  public:
    /**
     * @param plan fault schedule
     * @param rng  dedicated stream; frames derive from forkStable so
     *             the injector itself never advances it
     */
    FaultInjector(FaultPlan plan, Rng rng);

    /** Resolve the frame for an explicit measurement index. */
    FaultFrame frameFor(uint64_t measurement_index) const;

    /** Resolve the frame for the next measurement (iTDR hook). */
    FaultFrame nextFrame() { return frameFor(index_++); }

    /** @return measurements the injector has issued frames for. */
    uint64_t measurementIndex() const { return index_; }

    /** Rewind / fast-forward the measurement counter. */
    void resetIndex(uint64_t index = 0) { index_ = index; }

    /** @return the plan being sampled. */
    const FaultPlan &plan() const { return plan_; }

    /** @return true when an EPROM fault is scheduled at this event. */
    bool epromFaultAt(uint64_t event_index) const;

    /**
     * Resolve the storage-fault effects for one enrollment-database IO
     * event (the store's own event counter, not the measurement
     * index). Deterministic per (seed, event index).
     */
    StorageFault storageFrameFor(uint64_t event_index) const;

    /** @return true when any storage cell is scheduled at all. */
    bool hasStorageFaults() const;

    /**
     * Apply any EPROM corruption scheduled at `event_index` to a
     * saved calibration file: flips `magnitude` seeded random bytes.
     *
     * @return number of bytes corrupted (0 when no fault is due or
     *         the file cannot be rewritten)
     */
    unsigned corruptFile(const std::string &path,
                         uint64_t event_index) const;

  private:
    FaultPlan plan_;
    Rng base_;
    uint64_t index_ = 0;
};

} // namespace divot

#endif // DIVOT_FAULT_FAULT_HH
