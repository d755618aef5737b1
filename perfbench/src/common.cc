#include "common.hh"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0
        : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

double
peakRssMib()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
filesystemType(const std::string &path)
{
    struct statfs st;
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0x858458f6UL: return "ramfs";
    case 0xef53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683eUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x2fc12fc1UL: return "zfs";
    default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx",
                  static_cast<unsigned long>(st.f_type));
    return buf;
}

void
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec)
        throw std::runtime_error("cannot create " + path + ": " +
                                 ec.message());
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

uint64_t
fnv1a(uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
foldDouble(uint64_t h, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return fnv1a(h, &bits, sizeof bits);
}

uint64_t
foldU64(uint64_t h, uint64_t v)
{
    return fnv1a(h, &v, sizeof v);
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
