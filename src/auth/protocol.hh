/**
 * @file
 * Two-way bus authentication protocol (Section III).
 *
 * The CPU-side iTDR and the memory-side iTDR watch the *same*
 * physical bus from opposite ends. The CPU side authenticates "is
 * this the module and bus I was calibrated with?" before trusting
 * reads/writes; the memory side authenticates "is this request
 * really coming over the bus from my calibrated CPU?" before letting
 * the column access proceed. Each side keeps its own enrollment and
 * its own reaction policy. The bus is trusted only while *both*
 * directions pass.
 */

#ifndef DIVOT_AUTH_PROTOCOL_HH
#define DIVOT_AUTH_PROTOCOL_HH

#include <string>

#include "auth/authenticator.hh"
#include "auth/reaction.hh"
#include "txline/txline.hh"

namespace divot {

/** Combined outcome of one two-way monitoring round. */
struct TwoWayOutcome
{
    AuthVerdict cpu;              //!< CPU-side verdict
    AuthVerdict memory;           //!< memory-side verdict
    ReactionAction cpuAction;     //!< CPU-side reaction
    ReactionAction memoryAction;  //!< memory-side reaction
    bool busTrusted = false;      //!< both directions passed
};

/**
 * Pairs a CPU-side and a memory-side authenticator over one bus.
 */
class TwoWayAuthProtocol
{
  public:
    /**
     * @param auth  shared authenticator tuning
     * @param itdr  shared instrument configuration
     * @param rng   master random stream
     * @param name  bus label
     * @param zeroize_on_tamper arm key zeroization on the CPU side
     */
    TwoWayAuthProtocol(AuthConfig auth, ItdrConfig itdr, Rng rng,
                       std::string name = "membus",
                       bool zeroize_on_tamper = false);

    /**
     * Calibrate both sides against the pristine bus (installation
     * time).
     *
     * @param bus  the bus as seen from the CPU end
     * @param reps enrollment measurements per side
     */
    void calibrate(const TransmissionLine &bus, std::size_t reps = 16);

    /**
     * One two-way monitoring round against the current bus state.
     *
     * @param current_bus bus as the CPU currently sees it (tampered /
     *                    swapped copies welcome); the memory side
     *                    automatically sees the reversed view
     * @param emi         optional interference at both comparators
     */
    TwoWayOutcome monitorRound(const TransmissionLine &current_bus,
                               NoiseSource *emi = nullptr);

    /** @return CPU-side authenticator. */
    const Authenticator &cpuSide() const { return cpu_; }

    /** @return memory-side authenticator. */
    const Authenticator &memorySide() const { return memory_; }

    /** @return CPU-side reaction log. */
    const ReactionPolicy &cpuPolicy() const { return cpuPolicy_; }

    /** @return memory-side reaction log. */
    const ReactionPolicy &memoryPolicy() const { return memoryPolicy_; }

    /** @return true while the bus is mutually trusted. */
    bool busTrusted() const { return trusted_; }

  private:
    Authenticator cpu_;
    Authenticator memory_;
    ReactionPolicy cpuPolicy_;
    ReactionPolicy memoryPolicy_;
    bool trusted_ = false;
};

} // namespace divot

#endif // DIVOT_AUTH_PROTOCOL_HH
