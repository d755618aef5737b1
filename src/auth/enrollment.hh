/**
 * @file
 * Enrollment (calibration) storage — the paper's EPROM model.
 *
 * At manufacturing or installation time the iTDR on each side of a
 * bus collects the bus fingerprint and burns it into a local EPROM
 * (Section III, "Calibration"). The paper notes the ROM's secrecy is
 * *not* security-critical: an IIP is useless off its exact physical
 * line, so a leaked fingerprint cannot be replayed. The store
 * therefore offers plain binary persistence with integrity checking
 * (a corrupted calibration must fail loudly, not authenticate junk).
 *
 * Persistence is dual-bank (bootloader style): the image carries two
 * complete copies of the record set — bank A framed from the front of
 * the file, bank B framed from the end — each with its own length,
 * checksum, and per-record CRCs. Any single-byte corruption lands in
 * exactly one bank; loading falls back to the surviving bank and
 * scrubs (rewrites) the image. Version-1 single-copy files remain
 * readable. The byte formats live in store/codec (the v2 image is its
 * kEpromVersion); bank A is read whenever its header and payload fit
 * in the file. There is no per-record salvage: a load takes one whole
 * verified bank or nothing, and only names the first bank-A record
 * that broke.
 */

#ifndef DIVOT_AUTH_ENROLLMENT_HH
#define DIVOT_AUTH_ENROLLMENT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "fingerprint/fingerprint.hh"
#include "store/codec.hh"
#include "store/io.hh"

namespace divot {

/** Outcome of a dual-bank EPROM load. */
struct EpromLoadReport
{
    bool ok = false;        //!< a complete copy was loaded
    int bankUsed = -1;      //!< 0 = bank A, 1 = bank B, -1 = none
                            //!< (or legacy v1 single copy)
    bool fellBack = false;  //!< bank A was damaged; bank B served
    bool scrubbed = false;  //!< image was rewritten after fallback
    uint64_t records = 0;   //!< records loaded
    std::string detail;     //!< human-readable failure/fallback cause;
                            //!< on bank fallback includes which bank-A
                            //!< record frame failed (index, payload
                            //!< byte offset, and channel id when the
                            //!< record body was still parseable)
    int64_t failedRecordIndex = -1;  //!< bank A record that broke the
                                     //!< strict read (-1 = header/
                                     //!< whole-bank damage)
    int64_t failedRecordOffset = -1; //!< payload byte offset of that
                                     //!< frame (-1 = unknown)
    std::string failedRecordId;      //!< its channel id when readable
};

/**
 * Write-once-per-channel fingerprint store with file persistence.
 */
class EnrollmentStore
{
  public:
    EnrollmentStore() = default;

    /**
     * Record the calibration fingerprint of a channel.
     *
     * @param channel   channel identifier (e.g. "dimm0.clk")
     * @param fp        enrollment fingerprint
     * @param overwrite allow re-calibration of an existing channel
     * @return false when the channel exists and overwrite is false
     */
    bool enroll(const std::string &channel, Fingerprint fp,
                bool overwrite = false);

    /** @return the fingerprint of a channel, if enrolled. */
    std::optional<Fingerprint> lookup(const std::string &channel) const;

    /** @return true when the channel has a calibration record. */
    bool contains(const std::string &channel) const;

    /** @return number of enrolled channels. */
    std::size_t size() const { return store_.size(); }

    /** Remove every record (factory reset). */
    void clear() { store_.clear(); }

    /**
     * Persist all records to a binary file as a dual-bank image (two
     * complete copies, each checksummed whole and per record).
     *
     * @return true on success
     */
    bool saveToFile(const std::string &path) const;

    /**
     * Load records from a binary file, replacing current contents
     * only on success (strong exception safety: any failure leaves
     * the in-memory store untouched). Tries bank A, falls back to
     * bank B when A is damaged, and scrubs the image after a
     * fallback. Fails on missing file, bad magic, or when both banks
     * are damaged.
     */
    bool loadFromFile(const std::string &path);

    /**
     * loadFromFile with full diagnostics.
     *
     * @param path             image path
     * @param scrub_on_fallback rewrite the image when bank A was
     *                          damaged but bank B recovered the data
     */
    EpromLoadReport loadWithReport(const std::string &path,
                                   bool scrub_on_fallback = true);

    /**
     * Test seam: apply a simulated storage fault to every subsequent
     * saveToFile (including the scrub rewrite inside loadWithReport).
     * Pass std::nullopt to clear. Crash-point regression tests use
     * this to cut the power mid-scrub and prove the original image
     * survives.
     */
    void setSaveFault(std::optional<store::WriteFault> fault)
    {
        saveFault_ = fault;
    }

  private:
    std::map<std::string, store::EnrollmentRecord> store_;
    std::optional<store::WriteFault> saveFault_;
};

} // namespace divot

#endif // DIVOT_AUTH_ENROLLMENT_HH
