#include "util/math.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace divot {

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double
normalPdf(double x)
{
    static const double invSqrt2Pi = 0.3989422804014327;
    return invSqrt2Pi * std::exp(-0.5 * x * x);
}

double
normalInvCdf(double p)
{
    // Clamp: saturated probabilities map to large finite quantiles.
    const double eps = 1e-300;
    p = clampTo(p, eps, 1.0 - 1e-16);

    // Acklam's rational approximation.
    static const double a[] = {
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00 };
    static const double b[] = {
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01 };
    static const double c[] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00 };
    static const double d[] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00 };

    const double plow = 0.02425;
    const double phigh = 1.0 - plow;
    double x;
    if (p < plow) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
            ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
    } else if (p <= phigh) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0]*r + a[1])*r + a[2])*r + a[3])*r + a[4])*r + a[5])*q /
            (((((b[0]*r + b[1])*r + b[2])*r + b[3])*r + b[4])*r + 1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0]*q + c[1])*q + c[2])*q + c[3])*q + c[4])*q + c[5]) /
            ((((d[0]*q + d[1])*q + d[2])*q + d[3])*q + 1.0);
    }

    // One Halley refinement step brings the error near machine epsilon.
    const double e = normalCdf(x) - p;
    const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
    return x;
}

std::vector<double>
linspace(double lo, double hi, std::size_t n)
{
    std::vector<double> out(n);
    if (n == 0)
        return out;
    if (n == 1) {
        out[0] = lo;
        return out;
    }
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lo + step * static_cast<double>(i);
    return out;
}

double
clampTo(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

double
interpLinear(const std::vector<double> &xs, const std::vector<double> &ys,
             double x)
{
    if (xs.size() != ys.size() || xs.empty())
        divot_panic("interpLinear: mismatched or empty tables");
    if (x <= xs.front())
        return ys.front();
    if (x >= xs.back())
        return ys.back();
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
    const std::size_t lo = hi - 1;
    const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    return ys[lo] + t * (ys[hi] - ys[lo]);
}

unsigned long long
gcdU64(unsigned long long a, unsigned long long b)
{
    while (b != 0) {
        const unsigned long long t = a % b;
        a = b;
        b = t;
    }
    return a;
}

bool
coprime(unsigned long long a, unsigned long long b)
{
    return gcdU64(a, b) == 1;
}

} // namespace divot
