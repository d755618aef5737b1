#include "txline/txline.hh"

#include <cmath>

#include "util/logging.hh"

namespace divot {

TransmissionLine::TransmissionLine(std::vector<double> segment_impedances,
                                   double segment_length, double velocity,
                                   double source_impedance,
                                   double load_impedance,
                                   double loss_neper_per_m,
                                   std::string name)
    : z_(std::move(segment_impedances)), segLen_(segment_length),
      velocity_(velocity), zSource_(source_impedance),
      zLoad_(load_impedance), loss_(loss_neper_per_m),
      name_(std::move(name))
{
    if (z_.empty())
        divot_fatal("TransmissionLine needs at least one segment");
    if (segLen_ <= 0.0 || velocity_ <= 0.0)
        divot_fatal("bad geometry: segLen=%g velocity=%g",
                    segLen_, velocity_);
    if (zSource_ <= 0.0 || zLoad_ <= 0.0)
        divot_fatal("impedances must be positive: Zs=%g Zl=%g",
                    zSource_, zLoad_);
    for (double z : z_) {
        if (z <= 0.0)
            divot_fatal("segment impedance must be positive (got %g)", z);
    }
}

double
TransmissionLine::length() const
{
    return static_cast<double>(z_.size()) * segLen_;
}

void
TransmissionLine::setVelocity(double v)
{
    if (v <= 0.0)
        divot_fatal("velocity must be positive (got %g)", v);
    velocity_ = v;
}

double
TransmissionLine::oneWayDelay() const
{
    return length() / velocity_;
}

double
TransmissionLine::roundTripDelay() const
{
    return 2.0 * oneWayDelay();
}

void
TransmissionLine::setLoadImpedance(double z)
{
    if (z <= 0.0)
        divot_fatal("load impedance must be positive (got %g)", z);
    zLoad_ = z;
}

double
TransmissionLine::segmentAttenuation() const
{
    return std::exp(-loss_ * segLen_);
}

double
TransmissionLine::junctionReflection(std::size_t i) const
{
    if (i + 1 >= z_.size())
        divot_panic("junctionReflection index %zu out of range "
                    "(segments=%zu)", i, z_.size());
    return (z_[i + 1] - z_[i]) / (z_[i + 1] + z_[i]);
}

double
TransmissionLine::loadReflection() const
{
    const double zn = z_.back();
    return (zLoad_ - zn) / (zLoad_ + zn);
}

double
TransmissionLine::sourceReflection() const
{
    const double z0 = z_.front();
    return (zSource_ - z0) / (zSource_ + z0);
}

double
TransmissionLine::roundTripTimeAt(double distance) const
{
    return 2.0 * distance / velocity_;
}

double
TransmissionLine::distanceAtRoundTripTime(double t) const
{
    return 0.5 * t * velocity_;
}

TransmissionLine
reversedView(const TransmissionLine &line)
{
    std::vector<double> z(line.impedances().rbegin(),
                          line.impedances().rend());
    return TransmissionLine(std::move(z), line.segmentLength(),
                            line.velocity(), line.loadImpedance(),
                            line.sourceImpedance(),
                            line.lossNeperPerMeter(),
                            line.name() + ".rev");
}

} // namespace divot
