#include "service/request.hh"

#include <algorithm>

#include "store/codec.hh"

namespace divot::service {

namespace {

/** Requests and responses are a few hundred bytes at most; a body
 *  length past this is a corrupted length field, not a big frame. */
constexpr uint64_t kMaxBodyBytes = 1ull << 20;

std::vector<char>
encodeRequestBody(const ServiceRequest &request)
{
    std::vector<char> body;
    store::putU64(body, static_cast<uint64_t>(request.kind));
    store::putU64(body, request.id);
    store::putString(body, request.channel);
    return body;
}

std::vector<char>
encodeResponseBody(const ServiceResponse &response)
{
    std::vector<char> body;
    store::putU64(body, static_cast<uint64_t>(response.kind));
    store::putU64(body, static_cast<uint64_t>(response.status));
    store::putU64(body, response.id);
    store::putU64(body, response.tick);
    store::putString(body, response.channel);
    store::putU64(body, response.state);
    store::putU64(body, response.phase);
    store::putU64(body, response.flags);
    store::putF64(body, response.similarity);
    store::putU64(body, response.generation);
    store::putU64(body, response.channels);
    store::putU64(body, response.fenced);
    store::putU64(body, response.quarantined);
    return body;
}

bool
decodeRequestBody(const std::vector<char> &body, ServiceRequest &out)
{
    store::ByteReader reader(body);
    uint64_t kind = 0;
    ServiceRequest parsed;
    if (!reader.u64(kind) || !reader.u64(parsed.id) ||
        !reader.str(parsed.channel) || !reader.done())
        return false;
    if (kind >= kRequestKinds)
        return false;
    parsed.kind = static_cast<RequestKind>(kind);
    out = std::move(parsed);
    return true;
}

bool
decodeResponseBody(const std::vector<char> &body, ServiceResponse &out)
{
    store::ByteReader reader(body);
    uint64_t kind = 0;
    uint64_t status = 0;
    ServiceResponse parsed;
    if (!reader.u64(kind) || !reader.u64(status) ||
        !reader.u64(parsed.id) || !reader.u64(parsed.tick) ||
        !reader.str(parsed.channel) || !reader.u64(parsed.state) ||
        !reader.u64(parsed.phase) || !reader.u64(parsed.flags) ||
        !reader.f64(parsed.similarity) ||
        !reader.u64(parsed.generation) ||
        !reader.u64(parsed.channels) || !reader.u64(parsed.fenced) ||
        !reader.u64(parsed.quarantined) || !reader.done())
        return false;
    if (kind >= kRequestKinds || status >= kResponseStatuses)
        return false;
    parsed.kind = static_cast<RequestKind>(kind);
    parsed.status = static_cast<ResponseStatus>(status);
    out = std::move(parsed);
    return true;
}

void
appendFrame(std::vector<char> &stream, const std::vector<char> &body)
{
    store::putU64(stream, (static_cast<uint64_t>(kServiceVersion) << 32) |
                              kServiceMagic);
    store::putU64(stream, body.size());
    store::putU64(stream, store::fnv1a(body));
    stream.insert(stream.end(), body.begin(), body.end());
}

/**
 * Validate one frame header + checksum at data[0..n). On success the
 * verified body bytes are copied into `body` and status is Ok;
 * otherwise status/detail name the first thing wrong. Checks are
 * ordered so the most specific diagnosis wins: a wrong magic is
 * reported as BadMagic even when the buffer is also short.
 */
FrameParse
openFrame(const char *data, std::size_t n, std::vector<char> &body)
{
    FrameParse parse;
    // Magic (low word) and version (high word) share the first u64:
    // decode whatever prefix of the header arrived, zero-padded, so a
    // short buffer still gets the most specific diagnosis.
    char header[kServiceFrameHeader] = {};
    std::copy_n(data, std::min(n, kServiceFrameHeader), header);
    store::ByteReader hr(header, kServiceFrameHeader);
    uint64_t magicVer = 0, bodyLen = 0, crc = 0;
    hr.u64(magicVer);
    hr.u64(bodyLen);
    hr.u64(crc);
    if (n >= 4 && (magicVer & 0xffffffffu) != kServiceMagic) {
        parse.status = ParseStatus::BadMagic;
        parse.detail = "frame does not start with DIVQ magic";
        return parse;
    }
    if (n >= 8 && (magicVer >> 32) != kServiceVersion) {
        parse.status = ParseStatus::BadVersion;
        parse.detail = "unsupported codec version " +
                       std::to_string(magicVer >> 32);
        return parse;
    }
    if (n < kServiceFrameHeader) {
        parse.status = ParseStatus::Truncated;
        parse.detail = "frame header truncated (" + std::to_string(n) +
                       " of " + std::to_string(kServiceFrameHeader) +
                       " bytes)";
        return parse;
    }
    if (bodyLen > kMaxBodyBytes) {
        parse.status = ParseStatus::BadLength;
        parse.detail = "body length " + std::to_string(bodyLen) +
                       " exceeds the frame bound";
        return parse;
    }
    // Overflow-safe: compare against what is actually left.
    if (bodyLen > n - kServiceFrameHeader) {
        parse.status = ParseStatus::Truncated;
        parse.detail =
            "frame body truncated (" +
            std::to_string(n - kServiceFrameHeader) + " of " +
            std::to_string(bodyLen) + " bytes)";
        return parse;
    }
    body.assign(data + kServiceFrameHeader,
                data + kServiceFrameHeader + bodyLen);
    if (store::fnv1a(body) != crc) {
        parse.status = ParseStatus::BadChecksum;
        parse.detail = "frame body fails its checksum";
        return parse;
    }
    parse.consumed = kServiceFrameHeader + static_cast<std::size_t>(bodyLen);
    return parse;
}

template <typename Value, typename DecodeBody>
StreamDecode
decodeStream(const std::vector<char> &bytes, std::vector<Value> &out,
             DecodeBody decodeBody)
{
    StreamDecode result;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        Value value;
        FrameParse parse;
        std::vector<char> body;
        parse = openFrame(bytes.data() + pos, bytes.size() - pos, body);
        if (parse.ok() && !decodeBody(body, value)) {
            parse.status = ParseStatus::BadBody;
            parse.consumed = 0;
            parse.detail = "frame body does not parse";
        }
        if (!parse.ok()) {
            parse.detail = "frame " + std::to_string(result.frames) +
                           " at offset " + std::to_string(pos) + ": " +
                           parse.detail;
            result.offset = pos;
            result.last = parse;
            return result;
        }
        out.push_back(std::move(value));
        ++result.frames;
        pos += parse.consumed;
    }
    result.offset = pos;
    return result;
}

} // namespace

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::Enroll:
        return "enroll";
    case RequestKind::Verify:
        return "verify";
    case RequestKind::QuarantineStatus:
        return "quarantine_status";
    case RequestKind::Reenroll:
        return "reenroll";
    case RequestKind::FleetSummary:
        return "fleet_summary";
    }
    return "?";
}

const char *
responseStatusName(ResponseStatus status)
{
    switch (status) {
    case ResponseStatus::Ok:
        return "ok";
    case ResponseStatus::Busy:
        return "busy";
    case ResponseStatus::Fenced:
        return "fenced";
    case ResponseStatus::Unknown:
        return "unknown";
    case ResponseStatus::Rejected:
        return "rejected";
    }
    return "?";
}

const char *
parseStatusName(ParseStatus status)
{
    switch (status) {
    case ParseStatus::Ok:
        return "ok";
    case ParseStatus::Truncated:
        return "truncated";
    case ParseStatus::BadMagic:
        return "bad_magic";
    case ParseStatus::BadVersion:
        return "bad_version";
    case ParseStatus::BadLength:
        return "bad_length";
    case ParseStatus::BadChecksum:
        return "bad_checksum";
    case ParseStatus::BadBody:
        return "bad_body";
    }
    return "?";
}

void
appendRequestFrame(std::vector<char> &stream,
                   const ServiceRequest &request)
{
    appendFrame(stream, encodeRequestBody(request));
}

void
appendResponseFrame(std::vector<char> &stream,
                    const ServiceResponse &response)
{
    appendFrame(stream, encodeResponseBody(response));
}

FrameParse
decodeRequestFrame(const char *data, std::size_t n, ServiceRequest &out)
{
    std::vector<char> body;
    FrameParse parse = openFrame(data, n, body);
    if (!parse.ok())
        return parse;
    if (!decodeRequestBody(body, out)) {
        parse.status = ParseStatus::BadBody;
        parse.consumed = 0;
        parse.detail = "request body does not parse";
    }
    return parse;
}

FrameParse
decodeResponseFrame(const char *data, std::size_t n,
                    ServiceResponse &out)
{
    std::vector<char> body;
    FrameParse parse = openFrame(data, n, body);
    if (!parse.ok())
        return parse;
    if (!decodeResponseBody(body, out)) {
        parse.status = ParseStatus::BadBody;
        parse.consumed = 0;
        parse.detail = "response body does not parse";
    }
    return parse;
}

StreamDecode
decodeRequestStream(const std::vector<char> &bytes,
                    std::vector<ServiceRequest> &out)
{
    return decodeStream(bytes, out, decodeRequestBody);
}

StreamDecode
decodeResponseStream(const std::vector<char> &bytes,
                     std::vector<ServiceResponse> &out)
{
    return decodeStream(bytes, out, decodeResponseBody);
}

uint64_t
foldResponseDigest(uint64_t digest, const ServiceResponse &response)
{
    std::vector<char> bytes;
    store::putU64(bytes, digest);
    appendResponseFrame(bytes, response);
    return store::fnv1a(bytes);
}

} // namespace divot::service
