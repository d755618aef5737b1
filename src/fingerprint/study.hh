/**
 * @file
 * Genuine/impostor measurement-campaign driver — the machinery behind
 * Fig. 7 (authentication ROC), Fig. 8 (temperature), the vibration /
 * EMI results, and the multi-wire extension.
 *
 * A study owns a population of fabricated lines, one iTDR per line,
 * enrolls every line, then collects genuine scores (re-measure the
 * same line, compare to its enrollment) and impostor scores (compare
 * a measurement of line A to the enrollment of line B) under the
 * configured environment.
 */

#ifndef DIVOT_FINGERPRINT_STUDY_HH
#define DIVOT_FINGERPRINT_STUDY_HH

#include <memory>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.hh"
#include "fingerprint/fusion.hh"
#include "itdr/itdr.hh"
#include "telemetry/telemetry.hh"
#include "txline/environment.hh"
#include "txline/manufacturing.hh"
#include "txline/txline.hh"
#include "util/roc.hh"
#include "util/rng.hh"

namespace divot {

/** Study configuration. */
struct StudyConfig
{
    std::size_t lines = 6;            //!< fabricated Tx-lines (paper: 6)
    double lineLength = 0.25;         //!< meters (paper: 25 cm)
    double segmentLength = 0.5e-3;    //!< spatial resolution, meters
    std::size_t enrollReps = 16;      //!< measurements averaged at
                                      //!< calibration time
    std::size_t genuinePerLine = 64;  //!< genuine scores per line
    std::size_t impostorPerPair = 8;  //!< impostor scores per ordered
                                      //!< line pair
    double loadImpedanceSigma = 0.3;  //!< per-chip load variation, ohm
    std::size_t wires = 1;            //!< wires monitored per bus;
                                      //!< scores fuse across wires
    FusionConfig fusion;              //!< multi-wire fusion rule (the
                                      //!< default geometric mean is
                                      //!< the paper's §IV-C analysis)
    EnvironmentConditions environment; //!< campaign conditions
    ProcessParams process;            //!< fabrication statistics
    ItdrConfig itdr;                  //!< instrument configuration
    unsigned threads = 0;             //!< campaign worker threads;
                                      //!< 0 => DIVOT_THREADS env var /
                                      //!< hardware concurrency, 1 =>
                                      //!< serial. Results are
                                      //!< bit-identical at any count.

    /**
     * Optional telemetry sink: every measurement lane's iTDR is
     * attached under "itdr.<line name>" and the study accounts scores
     * and bus cycles under "study.*". Lane prefixes are unique, so
     * the stable export is identical at any thread count. Not owned;
     * must outlive run().
     */
    Telemetry *telemetry = nullptr;
};

/** Outcome of one campaign. */
struct StudyResult
{
    std::vector<double> genuine;   //!< genuine similarity scores
    std::vector<double> impostor;  //!< impostor similarity scores
    RocAnalysis roc;               //!< ROC / EER analysis
    double decidability = 0.0;     //!< d-prime separation
    double fittedEer = 0.0;        //!< Gaussian-fit EER Phi(-d'/2)
    uint64_t totalBusCycles = 0;   //!< cost accounting
    uint64_t cacheHits = 0;        //!< trace-cache hits across lanes
    uint64_t cacheMisses = 0;      //!< trace-cache misses across lanes
    uint64_t cacheEvictions = 0;   //!< trace-cache LRU evictions
};

/**
 * Runs genuine/impostor campaigns.
 *
 * The campaign fans out across a util::ThreadPool with a determinism
 * contract: results are bit-identical for a fixed seed at any thread
 * count. A lane's measurements run in order, one at a time, on any
 * worker (ThreadPool::parallelChains): a free worker takes the next
 * measurement of the lane with the most left, so every worker stays
 * busy however the lanes divide among them. Three mechanisms make
 * the executing thread irrelevant:
 *
 *  1. Every measurement lane — one (line, wire) instrument sequence,
 *     enrollment then genuine then impostor — seeds its iTDR and
 *     environments from Rng::forkStable, a pure function of the
 *     master seed and the lane index, never from shared-stream
 *     draws, and owns them and its result slots.
 *  2. Measurement wall-clock times (which drive the vibration chirp
 *     and temperature draws) follow a precomputed schedule: slot k of
 *     the canonical measurement enumeration starts at
 *     k * (predicted duration + gap), independent of when any thread
 *     actually executes it.
 *  3. Lanes write disjoint result slots; fusion and ROC analysis run
 *     after the pool barrier, in canonical order.
 */
class GenuineImpostorStudy
{
  public:
    /**
     * @param config campaign parameters
     * @param rng    master random stream
     */
    GenuineImpostorStudy(StudyConfig config, Rng rng);

    /** Execute the campaign and analyze the scores. */
    StudyResult run();

    /**
     * The fabricated lines (wire w of line l at index l*wires + w),
     * available after construction for inspection.
     */
    const std::vector<TransmissionLine> &lines() const { return lines_; }

  private:
    StudyConfig config_;
    Rng rng_;
    std::vector<TransmissionLine> lines_;
    Waveform nominal_;
};

} // namespace divot

#endif // DIVOT_FINGERPRINT_STUDY_HH
