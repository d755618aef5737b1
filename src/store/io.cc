#include "store/io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <new>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace divot::store {

namespace {

/**
 * Read `fd` to EOF into `out`, sized once from `size_hint` plus one
 * spare byte for the read that reports EOF. Short reads and EINTR
 * retry; a file that outgrew the hint (or reported size 0, as procfs
 * does) regrows the buffer and keeps reading.
 */
bool
readAllFd(int fd, std::size_t size_hint, std::vector<char> &out)
{
    out.resize(size_hint + 1);
    std::size_t done = 0;
    for (;;) {
        if (done == out.size())
            out.resize(std::max<std::size_t>(2 * out.size(), 4096));
        const ssize_t n =
            ::read(fd, out.data() + done, out.size() - done);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    out.resize(done);
    return true;
}

} // namespace

bool
readFile(const std::string &path, std::vector<char> &out)
{
    out.clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0;
    try {
        ok = ok && readAllFd(fd,
                             st.st_size > 0
                                 ? static_cast<std::size_t>(st.st_size)
                                 : 0,
                             out);
    } catch (const std::bad_alloc &) {
        ok = false; // a size no buffer can hold is a read error too
    } catch (const std::length_error &) {
        ok = false;
    }
    ::close(fd);
    if (!ok)
        out.clear();
    return ok;
}

namespace {

/** Write every byte through a raw fd, retrying short/EINTR writes. */
bool
writeAllFd(int fd, const char *data, std::size_t count)
{
    std::size_t done = 0;
    while (done < count) {
        const ssize_t n = ::write(fd, data + done, count - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Write `count` bytes to a fresh file and (when `sync` is set) sync
 * them to the medium. fdatasync suffices for the old-or-new
 * guarantee: the file is fresh, so the data blocks plus the size
 * (which fdatasync is required to flush, being metadata needed to
 * read the data back) are the whole durable state — the inode
 * timestamps fsync would additionally journal buy nothing, and at
 * fleet scale the difference is a measurable slice of every flush
 * epoch.
 */
bool
writeWhole(const std::string &path, const char *data, std::size_t count,
           bool sync = true)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = writeAllFd(fd, data, count);
    if (sync)
        ok = ::fdatasync(fd) == 0 && ok;
    ok = ::close(fd) == 0 && ok;
    return ok;
}

/**
 * fsync the directory holding `path` so a completed rename survives a
 * power cut (the data already reached the medium via the temp-file
 * fsync; this pins the directory entry). Best-effort: some file
 * systems refuse directory fds, and the rename itself has committed.
 */
void
syncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

void
syncFileData(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    ::fdatasync(fd);
    ::close(fd);
}

void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

bool
atomicWriteFile(const std::string &path, const std::vector<char> &bytes,
                const WriteFault *fault, bool sync_dir, bool sync_data)
{
    if (fault != nullptr && fault->crashBeforeWrite)
        return false;

    const std::string tmp = path + ".tmp";
    std::size_t count = bytes.size();
    bool torn = false;
    if (fault != nullptr && fault->tornAfterBytes >= 0 &&
        static_cast<uint64_t>(fault->tornAfterBytes) < count) {
        count = static_cast<std::size_t>(fault->tornAfterBytes);
        torn = true;
    }
    if (!writeWhole(tmp, bytes.data(), count, sync_data))
        return false;
    if (torn || (fault != nullptr && fault->crashBeforeRename))
        return false; // power cut: temp file abandoned, target intact

    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return false;
    if (sync_dir)
        syncParentDir(path);
    return true;
}

bool
appendFile(const std::string &path, const std::vector<char> &bytes,
           const WriteFault *fault)
{
    if (fault != nullptr && fault->crashBeforeWrite)
        return false;

    std::size_t count = bytes.size();
    bool torn = false;
    if (fault != nullptr && fault->tornAfterBytes >= 0 &&
        static_cast<uint64_t>(fault->tornAfterBytes) < count) {
        count = static_cast<std::size_t>(fault->tornAfterBytes);
        torn = true;
    }
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out)
        return false;
    out.write(bytes.data(), static_cast<std::streamsize>(count));
    out.flush();
    return static_cast<bool>(out) && !torn;
}

void
AppendStream::FileCloser::operator()(std::FILE *f) const
{
    if (f != nullptr)
        std::fclose(f);
}

bool
AppendStream::append(const std::string &path,
                     const std::vector<char> &bytes,
                     const WriteFault *fault)
{
    if (fault != nullptr && fault->crashBeforeWrite)
        return false;

    std::size_t count = bytes.size();
    bool torn = false;
    if (fault != nullptr && fault->tornAfterBytes >= 0 &&
        static_cast<uint64_t>(fault->tornAfterBytes) < count) {
        count = static_cast<std::size_t>(fault->tornAfterBytes);
        torn = true;
    }
    if (file_ == nullptr || path != path_) {
        file_.reset(std::fopen(path.c_str(), "ab"));
        if (file_ == nullptr)
            return false;
        path_ = path;
    }
    const bool wrote =
        std::fwrite(bytes.data(), 1, count, file_.get()) == count &&
        std::fflush(file_.get()) == 0;
    if (torn) {
        // Power cut mid-append: the handle dies with the machine.
        close();
        return false;
    }
    return wrote;
}

void
AppendStream::close()
{
    file_.reset();
    path_.clear();
}

int64_t
fileSize(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<int64_t>(st.st_size);
}

bool
fileExists(const std::string &path)
{
    return fileSize(path) >= 0;
}

bool
removeFile(const std::string &path)
{
    if (!fileExists(path))
        return true;
    return std::remove(path.c_str()) == 0;
}

bool
truncateFile(const std::string &path, uint64_t keep)
{
    return ::truncate(path.c_str(), static_cast<off_t>(keep)) == 0;
}

unsigned
applyStuckBits(const std::string &path, const std::vector<StuckBit> &bits)
{
    std::vector<char> data;
    if (!readFile(path, data) || data.empty())
        return 0;
    unsigned changed = 0;
    for (const StuckBit &sb : bits) {
        const uint64_t pos = sb.offset % data.size();
        const unsigned char mask =
            static_cast<unsigned char>(1u << (sb.bit & 7));
        unsigned char byte = static_cast<unsigned char>(data[pos]);
        const unsigned char forced = sb.level != 0
            ? static_cast<unsigned char>(byte | mask)
            : static_cast<unsigned char>(byte & ~mask);
        if (forced != byte) {
            data[pos] = static_cast<char>(forced);
            ++changed;
        }
    }
    if (changed == 0)
        return 0;
    if (!writeWhole(path, data.data(), data.size()))
        return 0;
    return changed;
}

bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0)
        return true;
    return dirExists(path);
}

bool
dirExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace divot::store
