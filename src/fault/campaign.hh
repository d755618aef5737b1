/**
 * @file
 * Fault × attack campaign driver.
 *
 * Runs a matrix of monitoring scenarios — each cell pairs one fault
 * plan (instrument corruption, or none) with one attack (physical
 * tamper, or none) — through a full Authenticator lifecycle and
 * reports detection, false-alarm, and availability statistics per
 * cell. Cells are independent and seeded via `Rng::forkStable(cell
 * index)`, so a campaign parallelizes across the thread pool and
 * reproduces bit-for-bit at any thread count.
 */

#ifndef DIVOT_FAULT_CAMPAIGN_HH
#define DIVOT_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "auth/authenticator.hh"
#include "fault/fault.hh"
#include "util/rng.hh"

namespace divot {

/** Physical attacks a campaign cell can stage. */
enum class CampaignAttack
{
    None,           //!< benign run (false-alarm / availability cell)
    MagneticProbe,  //!< near-field probe at mid-bus
    WireTap,        //!< soldered tap stub
    ColdBoot,       //!< module swapped for a foreign line
};

/** @return printable attack name. */
const char *campaignAttackName(CampaignAttack attack);

/** One named fault plan for the matrix. */
struct FaultScenario
{
    std::string name;  //!< row label ("none", "emi-burst", ...)
    FaultPlan plan;    //!< the injected schedule
};

/** Per-cell outcome statistics. */
struct FaultCell
{
    std::string fault;            //!< fault-scenario name
    std::string attack;           //!< attack name
    unsigned rounds = 0;          //!< monitoring rounds run
    bool attackStaged = false;    //!< an attack was present at all
    bool detected = false;        //!< attack flagged while present
    uint64_t detectionRound = 0;  //!< first flagged round (1-based)
    unsigned detectionLatency = 0; //!< rounds from attack to detection
    unsigned falseAlarms = 0;     //!< tamper alarms with no attack
    unsigned suppressedAlarms = 0; //!< candidates voted down
    unsigned unhealthyRounds = 0; //!< rounds failing health screens
    unsigned retries = 0;         //!< unhealthy re-measure attempts
    unsigned degradedRounds = 0;  //!< rounds ending in Degraded
    unsigned quarantineRounds = 0; //!< rounds ending in Quarantine
    unsigned authenticatedRounds = 0; //!< rounds with trust upheld
    double availability = 0.0;    //!< authenticatedRounds / rounds
    AuthState finalState = AuthState::Unenrolled;
};

/** Campaign configuration. */
struct FaultCampaignConfig
{
    AuthConfig auth;              //!< authenticator tuning per cell
    ItdrConfig itdr;              //!< instrument configuration
    unsigned rounds = 24;         //!< monitoring rounds per cell
    unsigned attackRound = 8;     //!< attack staged from this round
                                  //!< (0-based) to the end of the run
    std::size_t enrollReps = 8;   //!< enrollment measurements
    double lineLength = 0.15;     //!< fabricated bus length, meters
    double segmentLength = 0.5e-3; //!< spatial discretization
    unsigned threads = 0;         //!< 0 = DIVOT_THREADS / hardware

    /**
     * Optional shared telemetry sink: cells attach their
     * authenticators/instruments under cell-unique channel names and
     * the campaign accounts cells run and faults armed. Cell names
     * are unique per (fault, attack), so concurrent cells write
     * disjoint metrics and the export stays deterministic. Not owned;
     * must outlive the campaign run.
     */
    Telemetry *telemetry = nullptr;
};

/**
 * Runs the fault × attack matrix.
 */
class FaultCampaign
{
  public:
    /**
     * @param config shared cell configuration
     * @param rng    master stream; every cell forks stably from it
     */
    FaultCampaign(FaultCampaignConfig config, Rng rng);

    /**
     * Run every fault × attack cell and return the matrix flattened
     * row-major (faults outer, attacks inner). Deterministic at any
     * thread count.
     */
    std::vector<FaultCell> run(const std::vector<FaultScenario> &faults,
                               const std::vector<CampaignAttack> &attacks);

    /** The default fault rows exercised by bench_fault_matrix. */
    static std::vector<FaultScenario> standardFaults(unsigned attackRound);

  private:
    FaultCampaignConfig config_;
    Rng rng_;

    FaultCell runCell(const FaultScenario &fault, CampaignAttack attack,
                      std::size_t index) const;
};

} // namespace divot

#endif // DIVOT_FAULT_CAMPAIGN_HH
