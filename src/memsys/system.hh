/**
 * @file
 * ProtectedMemorySystem — the full Section III example design wired
 * together: a fabricated memory bus, a CPU-side memory controller
 * with its iTDR, an SDRAM module with its iTDR, the two-way
 * authentication protocol, and a workload driving traffic while
 * attacks are injected.
 */

#ifndef DIVOT_MEMSYS_SYSTEM_HH
#define DIVOT_MEMSYS_SYSTEM_HH

#include <memory>
#include <string>

#include "auth/protocol.hh"
#include "memsys/controller.hh"
#include "memsys/divot_gate.hh"
#include "memsys/sdram.hh"
#include "memsys/workload.hh"
#include "txline/manufacturing.hh"
#include "util/rng.hh"

namespace divot {

/** Top-level configuration. */
struct MemorySystemConfig
{
    SdramTiming timing;
    SdramGeometry geometry;
    AuthConfig auth;
    ItdrConfig itdr;
    ProcessParams process;
    double busLength = 0.08;        //!< CPU-to-DIMM trace, meters
    double segmentLength = 0.5e-3;  //!< spatial discretization
    double clockHz = 156.25e6;      //!< bus clock
    std::size_t enrollReps = 16;
    WorkloadKind workload = WorkloadKind::HotCold;
    uint64_t footprint = 1u << 22;  //!< words
    double requestsPerKcycle = 50.0;
    double writeFraction = 0.3;
    unsigned stallBoundRounds = 8;  //!< monitoring rounds a distrusted
                                    //!< stall may last before queued
                                    //!< requests are failed instead of
                                    //!< deadlocking; 0 = unbounded
                                    //!< (legacy behavior)
};

/** Aggregate run report. */
struct MemorySystemReport
{
    ControllerStats controller;
    uint64_t cyclesRun = 0;
    uint64_t completed = 0;     //!< requests served with data
    uint64_t failed = 0;        //!< requests rejected at the stall bound
    uint64_t injected = 0;
    uint64_t monitoringRounds = 0;
    uint64_t gateRejections = 0;
    std::vector<DetectionRecord> detections;
};

/**
 * The assembled protected memory system.
 */
class ProtectedMemorySystem
{
  public:
    /**
     * Fabricate, calibrate, and wire the system.
     *
     * @param config top-level configuration
     * @param rng    master random stream
     */
    ProtectedMemorySystem(MemorySystemConfig config, Rng rng);

    /** Schedule an attack / repair event on the bus. */
    void scheduleBusEvent(uint64_t cycle, TransmissionLine new_bus,
                          std::string description);

    /** Convenience: schedule a cold-boot module swap at `cycle`. */
    void scheduleColdBootSwap(uint64_t cycle);

    /** Convenience: attach a magnetic probe at `cycle`. */
    void scheduleProbeAttach(uint64_t cycle, double position = 0.5);

    /** Run the system for `cycles` clock cycles. */
    void run(uint64_t cycles);

    /** @return the accumulated report. */
    MemorySystemReport report() const;

    /** @return the pristine calibrated bus. */
    const TransmissionLine &bus() const { return bus_; }

    /** @return the protocol pair (for inspection). */
    const TwoWayAuthProtocol &protocol() const { return *protocol_; }

    /** @return mutable device handle (for example payloads). */
    Sdram &sdram() { return *sdram_; }

  private:
    MemorySystemConfig config_;
    Rng rng_;
    TransmissionLine bus_;
    std::unique_ptr<Sdram> sdram_;
    std::unique_ptr<MemoryController> controller_;
    std::unique_ptr<TwoWayAuthProtocol> protocol_;
    std::unique_ptr<DivotGate> gate_;
    std::unique_ptr<WorkloadGenerator> workload_;
    uint64_t cycle_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    uint64_t injected_ = 0;

    static TransmissionLine fabricateBus(const MemorySystemConfig &config,
                                         Rng &rng);
};

} // namespace divot

#endif // DIVOT_MEMSYS_SYSTEM_HH
