/**
 * @file
 * Structure-of-arrays scratch for one analytic strobe sweep: the
 * per-bin signal levels gathered from the detector trace, the
 * bins x levels probability grid, the per-lane binomial draws, and
 * the reduced per-bin hit counts.
 *
 * Every field is fully overwritten by each measure pass (resize +
 * full writes), so no state carries from one measurement to the
 * next; each instrument owns one arena and keeps its capacity.
 */

#ifndef DIVOT_ITDR_KERNELS_SOA_HH
#define DIVOT_ITDR_KERNELS_SOA_HH

#include <cstddef>
#include <vector>

namespace divot {

/** SoA scratch arena for one ETS sweep (reused across measurements). */
struct StrobeSoA
{
    std::vector<double> vSig;       //!< per-bin signal level [bins]
    std::vector<double> prob;       //!< output-1 probability grid
                                    //!< [bins x levels, row-major]
    std::vector<unsigned> laneHits; //!< per-lane binomial draws
                                    //!< [bins x levels, row-major]
    std::vector<unsigned> hits;     //!< reduced per-bin counts [bins]

    /** Size every lane for a bins x levels sweep (grow-only realloc:
     *  vectors keep their capacity across measurements). */
    void resize(std::size_t bins, std::size_t levels)
    {
        vSig.resize(bins);
        prob.resize(bins * levels);
        laneHits.resize(bins * levels);
        hits.resize(bins);
    }
};

} // namespace divot

#endif // DIVOT_ITDR_KERNELS_SOA_HH
