#include "memsys/controller.hh"

#include <algorithm>

#include "util/logging.hh"

namespace divot {

double
ControllerStats::rowHitRate() const
{
    const uint64_t total = rowHits + rowMisses;
    if (total == 0)
        return 0.0;
    return static_cast<double>(rowHits) / static_cast<double>(total);
}

MemoryController::MemoryController(Sdram &sdram, std::size_t queue_cap)
    : sdram_(sdram), queueCap_(queue_cap),
      nextRefresh_(sdram.timing().tREFI)
{
    if (queue_cap == 0)
        divot_fatal("controller queue capacity must be >= 1");
}

bool
MemoryController::enqueue(MemRequest request)
{
    if (queue_.size() >= queueCap_)
        return false;
    queue_.push_back({std::move(request), false});
    return true;
}

DramAddress
MemoryController::decode(uint64_t address) const
{
    const auto &g = sdram_.geometry();
    // Row-interleaved mapping: col bits, then bank, then row — keeps
    // sequential streams in the open row while spreading rows across
    // banks.
    DramAddress a;
    a.col = static_cast<unsigned>(address % g.colsPerRow);
    address /= g.colsPerRow;
    a.bank = static_cast<unsigned>(address % g.banks);
    address /= g.banks;
    a.row = static_cast<unsigned>(address % g.rowsPerBank);
    return a;
}

void
MemoryController::completeFinished(uint64_t cycle)
{
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
        if (it->doneCycle <= cycle) {
            MemCompletion done;
            done.request = it->request;
            done.completionCycle = it->doneCycle;
            done.rowHit = it->rowHit;
            if (it->request.isWrite) {
                sdram_.poke(it->request.address, it->request.data);
            } else {
                done.data = sdram_.peek(it->request.address);
            }
            stats_.latency.add(static_cast<double>(
                it->doneCycle - it->request.arrivalCycle));
            if (callback_)
                callback_(done);
            it = inFlight_.erase(it);
        } else {
            ++it;
        }
    }
}

void
MemoryController::failQueued(uint64_t cycle)
{
    while (!queue_.empty()) {
        MemCompletion done;
        done.request = queue_.front().request;
        done.completionCycle = cycle;
        done.failed = true;
        ++stats_.failedRequests;
        queue_.pop_front();
        if (callback_)
            callback_(done);
    }
}

bool
MemoryController::tryIssueFor(QueuedRequest &entry, uint64_t cycle,
                              std::size_t queue_index)
{
    const MemRequest &req = entry.request;
    const DramAddress addr = decode(req.address);
    const DramCommand data_cmd =
        req.isWrite ? DramCommand::Write : DramCommand::Read;
    const long open = sdram_.openRow(addr.bank);

    if (open == static_cast<long>(addr.row)) {
        if (sdram_.canIssue(data_cmd, addr, cycle)) {
            const uint64_t done = sdram_.issue(data_cmd, addr, cycle);
            // A request that needed its own PRE/ACT is a row miss even
            // though the row is open by the time the column command
            // issues.
            const bool hit = !entry.missedRow;
            inFlight_.push_back({req, done, hit});
            if (hit)
                ++stats_.rowHits;
            else
                ++stats_.rowMisses;
            if (req.isWrite)
                ++stats_.writes;
            else
                ++stats_.reads;
            queue_.erase(queue_.begin() + static_cast<long>(queue_index));
            return true;
        }
        // Row open but device not ready — possibly the DIVOT gate.
        if (sdram_.accessBlocked()) {
            sdram_.noteGateRejection();
            ++stats_.gateRejections;
        }
        return false;
    }
    if (open == -1) {
        if (sdram_.canIssue(DramCommand::Activate, addr, cycle)) {
            sdram_.issue(DramCommand::Activate, addr, cycle);
            entry.missedRow = true;
            return true;
        }
        return false;
    }
    if (sdram_.canIssue(DramCommand::Precharge, addr, cycle)) {
        sdram_.issue(DramCommand::Precharge, addr, cycle);
        entry.missedRow = true;
        return true;
    }
    return false;
}

void
MemoryController::tick(uint64_t cycle)
{
    completeFinished(cycle);

    // Refresh has priority once due; issue when all banks are closed,
    // closing them as needed.
    if (cycle >= nextRefresh_) {
        DramAddress dummy{0, 0, 0};
        if (sdram_.canIssue(DramCommand::Refresh, dummy, cycle)) {
            sdram_.issue(DramCommand::Refresh, dummy, cycle);
            ++stats_.refreshes;
            nextRefresh_ += sdram_.timing().tREFI;
            return;
        }
        // Close one open bank to make progress toward refresh.
        for (unsigned b = 0; b < sdram_.geometry().banks; ++b) {
            DramAddress addr{b, 0, 0};
            if (sdram_.openRow(b) != -1 &&
                sdram_.canIssue(DramCommand::Precharge, addr, cycle)) {
                sdram_.issue(DramCommand::Precharge, addr, cycle);
                return;
            }
        }
        return;
    }

    if (queue_.empty())
        return;

    if (!busTrusted_) {
        // CPU-side reaction: stall all data traffic while the bus
        // fingerprint mismatches.
        ++stats_.stalledCycles;
        ++stallStreak_;
        if (stallBound_ != 0 && stallStreak_ >= stallBound_) {
            // The stall bound expired (instrument degraded or
            // quarantined for good): reject the waiting requests
            // rather than deadlock the queue.
            failQueued(cycle);
        }
        return;
    }
    stallStreak_ = 0;

    // FR-FCFS: oldest row-hit first.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const DramAddress addr = decode(queue_[i].request.address);
        if (sdram_.openRow(addr.bank) == static_cast<long>(addr.row)) {
            if (tryIssueFor(queue_[i], cycle, i))
                return;
        }
    }
    // Fall back to the oldest request.
    tryIssueFor(queue_.front(), cycle, 0);
}

bool
MemoryController::idle() const
{
    return queue_.empty() && inFlight_.empty();
}

} // namespace divot
