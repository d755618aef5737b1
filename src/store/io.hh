/**
 * @file
 * Crash-safe file primitives for the enrollment persistence layer.
 *
 * Every durable artifact of the store — shard images, the write-ahead
 * journal, the legacy single-image EPROM — goes through these three
 * operations, which concentrate the crash-consistency reasoning in
 * one place:
 *
 *  - atomicWriteFile: write a temp sibling, fsync it, rename over the
 *    target, fsync the directory. A power cut at any instant leaves
 *    either the old file or the new file, never a torn mixture.
 *  - appendFile: buffered append, flushed to the OS but not fsynced
 *    (per-entry fsync would dominate mutation cost). A real power cut
 *    can therefore drop the tail appended since the last image
 *    checkpoint — but the journal's CRC framing makes that loss look
 *    exactly like a torn append, which replay discards as "op never
 *    happened"; corruption is never loaded either way.
 *  - readFile: whole-file read, one sized read(2) loop to EOF.
 *
 * Each write-side primitive takes an optional WriteFault describing a
 * simulated storage failure (torn write at a byte offset, power cut
 * before/after the rename). The campaign layer schedules these
 * deterministically from Rng::forkStable; production callers pass
 * nullptr and the checks fold away.
 */

#ifndef DIVOT_STORE_IO_HH
#define DIVOT_STORE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace divot::store {

/** A simulated storage failure applied to one write operation. */
struct WriteFault
{
    /** Write only this many bytes of the payload, then act as if the
     *  power failed (-1 = write everything). */
    int64_t tornAfterBytes = -1;

    /** Power cut after the temp file is written but before the rename
     *  commits it (atomicWriteFile only). */
    bool crashBeforeRename = false;

    /** Power cut before any byte reaches the medium. */
    bool crashBeforeWrite = false;

    /** @return true when the fault interrupts the operation. */
    bool interrupts() const
    {
        return tornAfterBytes >= 0 || crashBeforeRename ||
               crashBeforeWrite;
    }
};

/**
 * Read a whole file: open, fstat, and a read(2) loop into a buffer
 * sized once from st_size — the cost of a point lookup is the bytes
 * it reads, not a per-byte stream copy. The loop retries EINTR and
 * short reads and runs to EOF rather than stopping at st_size, so a
 * file that grew meanwhile, or one that reports size 0 (procfs), is
 * read in full. Reentrant: no shared buffer, safe from concurrent
 * hydration lanes.
 *
 * Never throws. Any error — missing file, a directory (EISDIR), a
 * failing medium (EIO), an unallocatable size — returns false with
 * `out` cleared; callers that must tell "absent" from "unreadable"
 * ask fileExists().
 *
 * @return true when every byte up to EOF was read
 */
bool readFile(const std::string &path, std::vector<char> &out);

/**
 * Atomically replace `path` with `bytes`: writes `path + ".tmp"`,
 * fsyncs it to the medium, renames over `path`, then (by default)
 * fsyncs the directory so the new entry itself survives a power cut.
 * With a fault, the on-disk state mimics the corresponding power cut
 * (partial temp file left behind, or a complete temp never renamed)
 * and false is returned.
 *
 * Group commit: `sync_dir = false` skips only the directory fsync.
 * `sync_data = false` additionally skips the temp-file data sync —
 * legal ONLY while some other durable copy (for the enrollment db:
 * the journal, which is truncated strictly after the deferred syncs
 * settle) can reconstruct every record the written image holds. When
 * the image carries records older than the journal's last
 * checkpoint, the data sync must stay inline: the old image is their
 * sole copy and renaming a non-durable temp over it would break the
 * old-or-new guarantee. A caller deferring either sync must settle —
 * `syncFileData()` on each deferred path, then `syncDir()` on the
 * parent — before it destroys any other way to recover the renamed
 * content (before the journal truncates at a checkpoint). Losing a
 * deferred directory entry or data block in a power cut merely
 * resurfaces the old state, and the still-intact journal replays the
 * difference.
 *
 * @return true when the rename committed
 */
bool atomicWriteFile(const std::string &path,
                     const std::vector<char> &bytes,
                     const WriteFault *fault = nullptr,
                     bool sync_dir = true,
                     bool sync_data = true);

/**
 * fdatasync a file written earlier with `sync_data = false`: pins the
 * data blocks and size before the journal stops covering them.
 * Best-effort on open failure (the file may have been damaged or
 * removed by a fault in between; recovery handles it as torn).
 */
void syncFileData(const std::string &path);

/**
 * fsync a directory so every rename committed into it survives a
 * power cut. Pairs with `atomicWriteFile(..., sync_dir = false)`:
 * one directory sync per flush epoch instead of one per rename.
 * Best-effort, like the inline sync (some file systems refuse
 * directory fds).
 */
void syncDir(const std::string &dir);

/**
 * Append `bytes` to `path` (creating it if missing). A torn-write
 * fault appends only the prefix, modeling a power cut mid-append.
 * Not fsynced — see the file header for the power-cut model.
 *
 * @return true when every byte was appended
 */
bool appendFile(const std::string &path,
                const std::vector<char> &bytes,
                const WriteFault *fault = nullptr);

/**
 * Append-only file handle held open across appends — the group-commit
 * counterpart of appendFile, which opens and closes the file on every
 * call (measurable at 10^5 appends per enroll pass). Durability is
 * identical: the descriptor is opened O_APPEND-style (std::ios::app),
 * every append is flushed to the OS, nothing is fsynced, and a torn
 * fault appends only the prefix and closes the handle. close()
 * before truncating the file elsewhere keeps the model simple (the
 * next append reopens at the new end).
 */
class AppendStream
{
  public:
    /** Same contract and return as appendFile. */
    bool append(const std::string &path,
                const std::vector<char> &bytes,
                const WriteFault *fault = nullptr);

    /** Close the handle (no-op when closed). */
    void close();

  private:
    struct FileCloser
    {
        void operator()(std::FILE *f) const;
    };
    std::unique_ptr<std::FILE, FileCloser> file_;
    std::string path_;
};

/** @return size of the file in bytes, or -1 when unreadable. */
int64_t fileSize(const std::string &path);

/** @return true when the path exists. */
bool fileExists(const std::string &path);

/** Delete a file; missing files count as success. */
bool removeFile(const std::string &path);

/**
 * Truncate a file to `keep` bytes (shard-truncation fault cell and
 * journal tail repair).
 *
 * @return true on success
 */
bool truncateFile(const std::string &path, uint64_t keep);

/**
 * Flip bits in-place at deterministic positions (stuck-at bit-rot
 * fault cell): for each (offset, bit, level) tuple the addressed bit
 * is forced to `level`.
 *
 * @return bits actually changed (already-at-level bits don't count)
 */
struct StuckBit
{
    uint64_t offset = 0; //!< byte offset into the file
    unsigned bit = 0;    //!< bit index 0..7
    int level = 0;       //!< forced value, 0 or 1
};

unsigned applyStuckBits(const std::string &path,
                        const std::vector<StuckBit> &bits);

/**
 * Create a directory (one level; parents must exist). An existing
 * directory counts as success.
 */
bool ensureDir(const std::string &path);

/** @return true when `path` exists and is a directory. */
bool dirExists(const std::string &path);

} // namespace divot::store

#endif // DIVOT_STORE_IO_HH
