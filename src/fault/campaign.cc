#include "fault/campaign.hh"

#include <utility>

#include "txline/manufacturing.hh"
#include "txline/tamper.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace divot {

const char *
campaignAttackName(CampaignAttack attack)
{
    switch (attack) {
      case CampaignAttack::None: return "none";
      case CampaignAttack::MagneticProbe: return "mag-probe";
      case CampaignAttack::WireTap: return "wire-tap";
      case CampaignAttack::ColdBoot: return "cold-boot";
    }
    return "?";
}

FaultCampaign::FaultCampaign(FaultCampaignConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng)
{
    if (config_.rounds == 0)
        divot_fatal("FaultCampaign needs at least one round");
    if (config_.attackRound >= config_.rounds)
        divot_fatal("attackRound %u outside the %u-round run",
                    config_.attackRound, config_.rounds);
}

std::vector<FaultScenario>
FaultCampaign::standardFaults(unsigned attackRound)
{
    // Transients are single-measurement events before the attack
    // round, so the vote-confirmation's fresh re-measurements really
    // do re-sample clean conditions (a multi-measurement burst would
    // corrupt the votes too and confirm its own false alarm).
    // Persistent faults cover the whole run to exercise retries and
    // the degradation ladder under attack as well. Indices are
    // measurement counts: one round consumes one measurement plus any
    // retries and confirmation votes.
    const uint64_t atk = attackRound;
    std::vector<FaultScenario> rows;
    rows.push_back({"none", FaultPlan{}});
    rows.push_back({"emi-burst",
                    FaultPlan{}.emiBurst(2, 1, 2.5e-3, 25e6)
                               .emiBurst(atk * 4, 1, 2.5e-3, 40e6)});
    rows.push_back({"cmp-stuck",
                    FaultPlan{}.comparatorStuck(3, 2, true)});
    rows.push_back({"offset-drift",
                    FaultPlan{}.offsetDrift(0, 0, 1.5e-4)});
    rows.push_back({"pll-dropout",
                    FaultPlan{}.pllDropout(2, 1, 0.15)});
    rows.push_back({"counter-flip",
                    FaultPlan{}.counterBitFlip(2, 1, 0.35)});
    // 18 measurements of overrun = 5 monitoring rounds of exhausted
    // retries (descending to Quarantine) plus one failed quarantine
    // probe; the instrument then proves itself clean and climbs back
    // in time to catch the attack.
    rows.push_back({"budget-overrun",
                    FaultPlan{}.budgetOverrun(0, 18, 2.0)});
    return rows;
}

FaultCell
FaultCampaign::runCell(const FaultScenario &fault, CampaignAttack attack,
                       std::size_t index) const
{
    // Everything in the cell — line fabrication, instrument noise,
    // fault sampling — forks stably from the master stream by cell
    // index, never from draw order, so the matrix reproduces
    // bit-for-bit regardless of which worker runs which cell.
    const Rng lane = rng_.forkStable(0xCE110000ull + index);

    ProcessParams params;
    ManufacturingProcess fab(params, lane.forkStable(1));
    auto z = fab.drawImpedanceProfile(config_.lineLength,
                                      config_.segmentLength);
    const TransmissionLine line(std::move(z), config_.segmentLength,
                                params.velocity, 50.0, 50.25,
                                params.lossNeperPerMeter,
                                fault.name + "-line");

    TransmissionLine attacked = line;
    switch (attack) {
      case CampaignAttack::None:
        break;
      case CampaignAttack::MagneticProbe:
        attacked = MagneticProbe(0.5).apply(line);
        break;
      case CampaignAttack::WireTap:
        attacked = WireTap(0.4, 50.0).apply(line);
        break;
      case CampaignAttack::ColdBoot: {
        // Module swap: a different physical line entirely.
        ManufacturingProcess foreignFab(params, lane.forkStable(2));
        auto zf = foreignFab.drawImpedanceProfile(config_.lineLength,
                                                  config_.segmentLength);
        attacked = TransmissionLine(std::move(zf), config_.segmentLength,
                                    params.velocity, 50.0, 50.25,
                                    params.lossNeperPerMeter,
                                    fault.name + "-foreign");
        break;
      }
    }

    Authenticator auth(config_.auth, config_.itdr, lane.forkStable(3),
                       fault.name + "x" + campaignAttackName(attack));
    auth.attachTelemetry(config_.telemetry);
    auth.enroll(line, config_.enrollReps);

    FaultInjector injector(fault.plan, lane.forkStable(4));
    auth.attachFaultInjector(&injector);

    FaultCell cell;
    cell.fault = fault.name;
    cell.attack = campaignAttackName(attack);
    cell.rounds = config_.rounds;
    cell.attackStaged = attack != CampaignAttack::None;

    for (unsigned r = 0; r < config_.rounds; ++r) {
        const bool attackOn =
            cell.attackStaged && r >= config_.attackRound;
        const AuthVerdict v =
            auth.checkRound(attackOn ? attacked : line);

        if (v.authenticated)
            ++cell.authenticatedRounds;
        if (!v.instrumentHealthy)
            ++cell.unhealthyRounds;
        cell.retries += v.retries;
        if (v.alarmSuppressed)
            ++cell.suppressedAlarms;
        if (v.stateAfter == AuthState::Degraded)
            ++cell.degradedRounds;
        if (v.stateAfter == AuthState::Quarantine)
            ++cell.quarantineRounds;

        // A module swap announces itself through the similarity check
        // (Mismatch), not necessarily the tamper alarm; count either
        // as detection, but only from a healthy instrument.
        const bool flagged = v.tamperAlarm ||
            (attack == CampaignAttack::ColdBoot && v.instrumentHealthy &&
             !v.authenticated);
        if (attackOn) {
            if (flagged && !cell.detected) {
                cell.detected = true;
                cell.detectionRound = r + 1;
                cell.detectionLatency = r - config_.attackRound + 1;
            }
        } else if (v.tamperAlarm) {
            ++cell.falseAlarms;
        }
    }

    cell.availability =
        static_cast<double>(cell.authenticatedRounds) / cell.rounds;
    cell.finalState = auth.state();
    return cell;
}

std::vector<FaultCell>
FaultCampaign::run(const std::vector<FaultScenario> &faults,
                   const std::vector<CampaignAttack> &attacks)
{
    if (faults.empty() || attacks.empty())
        divot_fatal("fault campaign needs at least one fault and "
                    "one attack column");
    const std::size_t n = faults.size() * attacks.size();
    std::vector<FaultCell> cells(n);
    ThreadPool pool(config_.threads);
    pool.attachTelemetry(config_.telemetry, "campaign.pool");
    Counter cells_run;
    Counter faults_armed;
    if (config_.telemetry != nullptr && config_.telemetry->enabled()) {
        Registry &reg = config_.telemetry->registry();
        cells_run = reg.counter("campaign.cells");
        faults_armed = reg.counter("campaign.faults.armed");
    }
    pool.parallelFor(n, [&](std::size_t i) {
        const FaultScenario &fault = faults[i / attacks.size()];
        cells[i] = runCell(fault, attacks[i % attacks.size()], i);
        cells_run.add();
        faults_armed.add(fault.plan.specs().size());
    });
    return cells;
}

} // namespace divot
