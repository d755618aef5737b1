/**
 * @file
 * The DIVOT gate: couples bus authentication to the memory system at
 * cycle granularity (Section III's example design).
 *
 * Monitoring runs *concurrently* with data transfers — the iTDR
 * samples the clock lane's own edges — so a monitoring round costs
 * zero data-bus bandwidth; what it takes is wall-clock time: one
 * round spans `roundCycles` bus cycles (the measurement budget). A
 * verdict therefore applies from the end of the round in which the
 * physical change occurred, which is exactly what bounds DIVOT's
 * detection latency.
 *
 * A TwoWayAuthProtocol watches the bus from both ends; the gate
 * trusts the bus while both directions pass.
 *
 * Attack scenarios are injected by swapping the "current bus" object
 * at a scheduled cycle: a cold-boot module swap replaces the line
 * wholesale, a probe attach tamper-transforms it, removal restores
 * it.
 */

#ifndef DIVOT_MEMSYS_DIVOT_GATE_HH
#define DIVOT_MEMSYS_DIVOT_GATE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "memsys/controller.hh"
#include "memsys/sdram.hh"
#include "txline/txline.hh"

namespace divot {

class TwoWayAuthProtocol;
struct TwoWayOutcome;

/** One scheduled change of the physical bus state. */
struct BusEvent
{
    uint64_t cycle;           //!< when the physical change happens
    TransmissionLine newBus;  //!< the bus as it exists afterwards
    std::string description;  //!< logged; becomes the detection's
                              //!< DetectionRecord::attack
};

/** Record of a detection. */
struct DetectionRecord
{
    uint64_t attackCycle = 0;    //!< when the physical change happened
    uint64_t detectedCycle = 0;  //!< when DIVOT reacted
    uint64_t latencyCycles = 0;  //!< difference
    double latencySeconds = 0.0; //!< at the bus clock
    std::string attack;          //!< description of the change
};

/**
 * Couples bus authentication to a MemoryController + Sdram pair.
 */
class DivotGate
{
  public:
    /**
     * @param protocol     calibrated two-way authenticator pair
     * @param controller   CPU-side memory controller to stall
     * @param sdram        device whose accesses get blocked
     * @param pristine_bus the bus as calibrated
     * @param clock_hz     bus clock frequency (latency conversion)
     */
    DivotGate(TwoWayAuthProtocol &protocol, MemoryController &controller,
              Sdram &sdram, TransmissionLine pristine_bus,
              double clock_hz);

    ~DivotGate();

    /** Schedule a physical bus change (attack or repair). */
    void scheduleEvent(BusEvent event);

    /**
     * Advance to `cycle`: apply due bus events and, when a monitoring
     * round completes, evaluate the authentication and drive the
     * controller stall / device gate.
     */
    void tick(uint64_t cycle);

    /** @return monitoring round length in bus cycles. */
    uint64_t roundCycles() const { return roundCycles_; }

    /** @return completed monitoring rounds. */
    uint64_t roundsCompleted() const { return rounds_; }

    /** @return detections observed so far. */
    const std::vector<DetectionRecord> &detections() const
    {
        return detections_;
    }

    /** @return the bus as it currently physically exists. */
    const TransmissionLine &currentBus() const { return currentBus_; }

    /** @return last round's two-way outcome, or nullptr before the
     *  first round. */
    const TwoWayOutcome *lastOutcome() const { return lastOutcome_.get(); }

  private:
    void applyVerdict(bool trusted, bool block_access, uint64_t cycle);

    TwoWayAuthProtocol &protocol_;
    MemoryController &controller_;
    Sdram &sdram_;
    TransmissionLine currentBus_;
    double clockHz_;
    uint64_t roundCycles_;
    uint64_t nextRoundEnd_;
    uint64_t rounds_ = 0;
    std::vector<BusEvent> pending_;
    std::vector<DetectionRecord> detections_;
    std::unique_ptr<TwoWayOutcome> lastOutcome_;
    std::optional<uint64_t> outstandingAttackCycle_;
    std::string outstandingAttack_;
};

} // namespace divot

#endif // DIVOT_MEMSYS_DIVOT_GATE_HH
