#include "auth/protocol.hh"

#include "util/logging.hh"

namespace divot {

TwoWayAuthProtocol::TwoWayAuthProtocol(AuthConfig auth, ItdrConfig itdr,
                                       Rng rng, std::string name,
                                       bool zeroize_on_tamper)
    : cpu_(auth, itdr, rng.fork(0x4001), name + ".cpu"),
      memory_(auth, itdr, rng.fork(0x4002), name + ".mem"),
      cpuPolicy_(BusRole::Cpu, zeroize_on_tamper),
      memoryPolicy_(BusRole::Memory, false)
{
}

void
TwoWayAuthProtocol::calibrate(const TransmissionLine &bus,
                              std::size_t reps)
{
    cpu_.enroll(bus, reps);
    const TransmissionLine memory_view = reversedView(bus);
    memory_.enroll(memory_view, reps);
    trusted_ = true;
}

TwoWayOutcome
TwoWayAuthProtocol::monitorRound(const TransmissionLine &current_bus,
                                 NoiseSource *emi)
{
    TwoWayOutcome out;
    out.cpu = cpu_.checkRound(current_bus, emi);
    const TransmissionLine memory_view = reversedView(current_bus);
    out.memory = memory_.checkRound(memory_view, emi);
    out.cpuAction = cpuPolicy_.decide(out.cpu);
    out.memoryAction = memoryPolicy_.decide(out.memory);
    out.busTrusted = out.cpuAction == ReactionAction::Proceed &&
        out.memoryAction == ReactionAction::Proceed;
    trusted_ = out.busTrusted;
    return out;
}

} // namespace divot
