/**
 * @file
 * Shared driver for the Fig. 9 tamper benches: fabricate the 25 cm
 * prototype line, enroll it, apply an attack, and emit the paper's
 * three artifacts — the IIP traces before/after, the error function
 * E_xy, and the detection/localization row.
 */

#ifndef DIVOT_BENCH_TAMPER_COMMON_HH
#define DIVOT_BENCH_TAMPER_COMMON_HH

#include <memory>
#include <vector>

#include "bench_common.hh"
#include "fingerprint/fingerprint.hh"
#include "fingerprint/localize.hh"
#include "itdr/itdr.hh"
#include "txline/manufacturing.hh"
#include "txline/tamper.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace divot {
namespace bench {

/** The fabricated line plus its enrolled fingerprint and instrument. */
struct TamperRig
{
    /**
     * Fixed worker-lane count for averaged measurement campaigns.
     * Repetition i always runs on lane i % kWorkerLanes, in increasing
     * order within a lane, so the result is bit-identical for any
     * thread count (including 1 — the pool runs lanes inline then).
     */
    static constexpr std::size_t kWorkerLanes = 8;

    TransmissionLine line;
    ItdrConfig cfg;
    ITdr itdr;
    Waveform nominal;
    Fingerprint enrolled;

    TamperRig(const Options &opt, double load_impedance = 50.2)
        : line(fabricate(opt, load_impedance)), itdr(cfg, Rng(opt.seed))
    {
        const Rng master(opt.seed ^ 0x51abULL);
        workers_.resize(kWorkerLanes);
        pool_.parallelFor(kWorkerLanes, [&](std::size_t k) {
            workers_[k] = std::make_unique<ITdr>(
                cfg, master.forkStable(0x7a00ULL + k));
        });
        TransmissionLine uniform(
            std::vector<double>(line.segments(), 50.0),
            line.segmentLength(), line.velocity(), 50.0, 50.0,
            line.lossNeperPerMeter(), "nominal");
        nominal = itdr.idealIip(uniform);
        enrolled = average(line, opt.full ? 32 : 16);
    }

    static TransmissionLine
    fabricate(const Options &opt, double load_impedance)
    {
        ProcessParams params;
        ManufacturingProcess fab(params, Rng(opt.seed ^ 0xf19));
        auto z = fab.drawImpedanceProfile(0.25, 0.5e-3);
        return TransmissionLine(std::move(z), 0.5e-3, params.velocity,
                                50.0, load_impedance,
                                params.lossNeperPerMeter, "proto25cm");
    }

    /**
     * Averaged fingerprint of a (possibly tampered) line state. The
     * repetitions fan out across the worker lanes; each lane keeps a
     * persistent ITdr so its reconstruction plan is acquired once, and
     * lane streams advance in a fixed order across calls.
     */
    Fingerprint
    average(const TransmissionLine &l, std::size_t reps)
    {
        std::vector<IipMeasurement> ms(reps);
        pool_.parallelFor(kWorkerLanes, [&](std::size_t k) {
            for (std::size_t i = k; i < reps; i += kWorkerLanes)
                ms[i] = workers_[k]->measure(l);
        });
        return Fingerprint::enroll(ms, nominal, l.name());
    }

    /**
     * Run the full Fig. 9-style comparison for one attack and print
     * the series plus the detection table.
     */
    void
    report(const Options &opt, const char *tag,
           const TransmissionLine &attacked)
    {
        const std::size_t reps = opt.full ? 32 : 16;
        const Fingerprint benign = average(line, reps);
        const Fingerprint hit = average(attacked, reps);

        // IIP traces (paper plots V vs round-trip time 0..3.8 ns).
        printSeries(std::cout,
                    std::string(tag) + ".iip.before (t, V)",
                    decimate(enrolled.raw()));
        printSeries(std::cout,
                    std::string(tag) + ".iip.after  (t, V)",
                    decimate(hit.raw()));

        // Error functions: ambient (dotted in the paper) vs attack.
        const Waveform e_ambient = errorFunction(enrolled, benign);
        const Waveform e_attack = errorFunction(enrolled, hit);
        printSeries(std::cout,
                    std::string(tag) + ".exy.ambient (t, V^2)",
                    decimate(e_ambient));
        printSeries(std::cout,
                    std::string(tag) + ".exy.attack  (t, V^2)",
                    decimate(e_attack));

        // Detection / localization row at the paper's threshold.
        TamperLocalizer localizer(5e-7);
        const TamperReport amb =
            localizer.inspect(enrolled, benign, line);
        const TamperReport att =
            localizer.inspect(enrolled, hit, line);

        Table table(std::string(tag) + " detection at threshold 5e-7");
        table.setHeader({"condition", "peak E_xy", "peak t (ns)",
                         "location (cm)", "detected"});
        table.addRow({"ambient", Table::sci(amb.peakError, 3),
                      Table::num(amb.peakTime * 1e9, 3),
                      Table::num(amb.location * 100.0, 2),
                      amb.detected ? "YES (false+)" : "no"});
        table.addRow({"attack", Table::sci(att.peakError, 3),
                      Table::num(att.peakTime * 1e9, 3),
                      Table::num(att.location * 100.0, 2),
                      att.detected ? "yes" : "MISSED"});
        if (opt.csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::printf("\ncontrast (attack/ambient peak): %.1fx\n",
                    att.peakError / std::max(amb.peakError, 1e-300));
    }

    /** Thin a waveform to ~200 printable points. */
    static std::vector<std::pair<double, double>>
    decimate(const Waveform &w)
    {
        std::vector<std::pair<double, double>> out;
        const std::size_t stride =
            std::max<std::size_t>(1, w.size() / 200);
        for (std::size_t i = 0; i < w.size(); i += stride)
            out.emplace_back(w.timeAt(i) * 1e9, w[i]);
        return out;
    }

  private:
    ThreadPool pool_;
    std::vector<std::unique_ptr<ITdr>> workers_;
};

} // namespace bench
} // namespace divot

#endif // DIVOT_BENCH_TAMPER_COMMON_HH
