/**
 * @file
 * The transmission-line model.
 *
 * A TransmissionLine is a chain of uniform segments, each with its own
 * characteristic impedance (the discretized IIP), plus the source
 * impedance of the driving transmitter and the load impedance of the
 * receiving chip. Tamper transforms (tamper.hh) and environment
 * effects (environment.hh) operate by producing modified copies, so a
 * pristine enrolled line is never mutated by an attack model.
 */

#ifndef DIVOT_TXLINE_TXLINE_HH
#define DIVOT_TXLINE_TXLINE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace divot {

/**
 * A discretized transmission line between a transmitter and a
 * receiver chip.
 */
class TransmissionLine
{
  public:
    /**
     * @param segment_impedances per-segment Z in ohms (the IIP)
     * @param segment_length     spatial step in meters
     * @param velocity           propagation velocity in m/s
     * @param source_impedance   driver output impedance in ohms
     * @param load_impedance     receiver input impedance in ohms
     * @param loss_neper_per_m   attenuation coefficient
     * @param name               label used in logs and experiments
     */
    TransmissionLine(std::vector<double> segment_impedances,
                     double segment_length, double velocity,
                     double source_impedance, double load_impedance,
                     double loss_neper_per_m = 0.0,
                     std::string name = "txline");

    /** @return number of segments. */
    std::size_t segments() const { return z_.size(); }

    /** @return characteristic impedance of segment i in ohms. */
    double impedanceAt(std::size_t i) const { return z_.at(i); }

    /** @return mutable per-segment impedance vector. */
    std::vector<double> &impedances() { return z_; }

    /** @return per-segment impedance vector. */
    const std::vector<double> &impedances() const { return z_; }

    /** @return spatial discretization step in meters. */
    double segmentLength() const { return segLen_; }

    /** @return physical length in meters. */
    double length() const;

    /** @return propagation velocity in m/s. */
    double velocity() const { return velocity_; }

    /** Override the propagation velocity (used by temperature model). */
    void setVelocity(double v);

    /** @return one-way propagation delay in seconds. */
    double oneWayDelay() const;

    /** @return round-trip delay in seconds (the Fig. 9 time span). */
    double roundTripDelay() const;

    /** @return driver output impedance in ohms. */
    double sourceImpedance() const { return zSource_; }

    /** @return receiver input impedance in ohms. */
    double loadImpedance() const { return zLoad_; }

    /** Replace the load impedance (chip swap / Trojan models). */
    void setLoadImpedance(double z);

    /** @return attenuation in neper per meter. */
    double lossNeperPerMeter() const { return loss_; }

    /** @return per-segment one-way amplitude attenuation factor. */
    double segmentAttenuation() const;

    /** @return label of this line. */
    const std::string &name() const { return name_; }

    /** Rename the line (clones of tampered lines tag themselves). */
    void setName(std::string name) { name_ = std::move(name); }

    /**
     * Reflection coefficient at the junction between segment i and
     * segment i+1 for a rightward-travelling wave:
     * rho = (Z_{i+1} - Z_i) / (Z_{i+1} + Z_i).
     */
    double junctionReflection(std::size_t i) const;

    /** Reflection coefficient looking into the load from the last
     *  segment. */
    double loadReflection() const;

    /** Reflection coefficient looking into the source from segment 0. */
    double sourceReflection() const;

    /**
     * Convert a one-way distance from the source into the round-trip
     * reflection arrival time seen at the detector.
     */
    double roundTripTimeAt(double distance) const;

    /**
     * Convert a round-trip reflection time into the distance of the
     * discontinuity that produced it.
     */
    double distanceAtRoundTripTime(double t) const;

  private:
    std::vector<double> z_;
    double segLen_;
    double velocity_;
    double zSource_;
    double zLoad_;
    double loss_;
    std::string name_;
};

/**
 * The same physical line as seen from the other end: the impedance
 * profile reverses and the source/load roles swap. A memory-module-
 * side iTDR observes exactly this view of the shared bus.
 */
TransmissionLine reversedView(const TransmissionLine &line);

} // namespace divot

#endif // DIVOT_TXLINE_TXLINE_HH
