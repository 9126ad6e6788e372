/**
 * @file
 * The eaao-snap v1 container format: a sectioned, checksummed binary
 * envelope for deterministic checkpoint images.
 *
 * Layout (all integers little-endian, fixed width):
 *
 *     offset  size  field
 *     0       8     magic "EAAOSNAP"
 *     8       4     u32 format version (kFormatVersion)
 *     12      4     u32 section count
 *     16      8     u64 section-table offset
 *     24      ...   section payloads, back to back
 *     table   n*32  per section: u32 id, u32 reserved(0),
 *                   u64 offset, u64 size, u64 FNV-1a checksum
 *
 * Readers reject a bad magic, a version newer than they support
 * (mirroring Scenario::parse's forward-version rejection), a section
 * table that points outside the image, and any payload whose FNV-1a
 * 64-bit checksum disagrees with the table — each with a one-line
 * error a driver can print before exiting 2. Doubles are serialized
 * as their IEEE-754 bit patterns, so round-trips are bit-exact.
 *
 * See docs/checkpoint.md for the section inventory.
 */

#ifndef EAAO_SNAP_FORMAT_HPP
#define EAAO_SNAP_FORMAT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace eaao::snap {

/** Magic bytes at offset 0 of every snapshot image. */
inline constexpr char kMagic[8] = {'E', 'A', 'A', 'O', 'S', 'N', 'A', 'P'};

/**
 * The one format version this binary reads and writes; readers reject
 * older and newer images alike. Version 2 added the event queue's
 * timing-wheel state (frontier + parked entries with bucket placement)
 * and the lanes' open-loop arrival cursors to the per-lane sections.
 * Version 3 streams open-loop arrivals (faas::OpenLoopStream), so each
 * per-lane stream record lost its `gen_until` generation mark and its
 * `end` (always origin + the op's span). Version 4 deletes the timing
 * wheel: the event-queue image lost `wheel_frontier` and the wheel
 * entry table (every pending entry is in the heap or staging buffer).
 * Version 5 drops every fleet-sized record: the committed table and
 * each lane's delta are written as host-load entries (host, vcpus,
 * memory) in first-touch order instead of dense columns plus a touch
 * list, and each service's helper and spill orders as the prefixes
 * the orchestrator keeps.
 */
inline constexpr std::uint32_t kFormatVersion = 5;

/** Section identifiers (id 0x100 + lane for per-lane sections). */
inline constexpr std::uint32_t kSectionMeta = 1;
inline constexpr std::uint32_t kSectionCommitted = 2;
inline constexpr std::uint32_t kSectionObs = 3;
inline constexpr std::uint32_t kSectionLaneBase = 0x100;

/** FNV-1a 64-bit hash of @p size bytes at @p data. */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size);

/**
 * Append-only little-endian encoder for one section payload.
 */
class SectionWriter
{
  public:
    void
    putU8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    putU32(std::uint32_t v)
    {
        putBits(v, 4);
    }

    void
    putU64(std::uint64_t v)
    {
        putBits(v, 8);
    }

    void
    putI64(std::int64_t v)
    {
        putBits(static_cast<std::uint64_t>(v), 8);
    }

    /** Bit-pattern serialization: round-trips NaNs and -0.0 exactly. */
    void
    putF64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        putBits(bits, 8);
    }

    /** u64 length prefix + raw bytes. */
    void putString(const std::string &s);

    /** @p n doubles as back-to-back IEEE-754 bit patterns (no count). */
    void putF64Array(const double *v, std::size_t n);

    /**
     * Append @p n uninitialized bytes and return their write pointer —
     * one allocation for a whole fixed-width record table, which the
     * caller fills with unchecked little-endian stores. The pointer is
     * invalidated by any later put/grow call.
     */
    std::uint8_t *
    grow(std::size_t n)
    {
        const std::size_t off = buf_.size();
        buf_.resize(off + n);
        return buf_.data() + off;
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    void
    putBits(std::uint64_t v, unsigned bytes)
    {
        // Staged through a local array so the append is one
        // bounds-checked insert, not `bytes` push_backs; the shift
        // loop compiles to a single store on little-endian hosts.
        std::uint8_t tmp[8];
        for (unsigned i = 0; i < bytes; ++i)
            tmp[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), tmp, tmp + bytes);
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked little-endian decoder over one section payload.
 * Every get returns false (and leaves the output untouched) on
 * truncation; atEnd() lets callers insist the payload was consumed.
 */
class SectionReader
{
  public:
    SectionReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool getU8(std::uint8_t &v);
    bool getU32(std::uint32_t &v);
    bool getU64(std::uint64_t &v);
    bool getI64(std::int64_t &v);
    bool getF64(double &v);
    bool getString(std::string &s);

    /** Counterpart of putF64Array: @p n doubles into @p v. */
    bool getF64Array(double *v, std::size_t n);

    bool atEnd() const { return off_ == size_; }

    /** Unconsumed payload bytes (bounds untrusted counts pre-alloc). */
    std::size_t remaining() const { return size_ - off_; }

    /**
     * Claim the next @p n bytes raw, or nullptr when fewer remain.
     * One bounds check for a whole fixed-width record table; callers
     * decode the returned window with unchecked little-endian loads.
     */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (size_ - off_ < n)
            return nullptr;
        const std::uint8_t *p = data_ + off_;
        off_ += n;
        return p;
    }

  private:
    bool getBits(std::uint64_t &v, unsigned bytes);

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t off_ = 0;
};

/**
 * Assembles a snapshot image from named section payloads.
 */
class SnapshotWriter
{
  public:
    /** Append a section. Ids must be unique; order is preserved. */
    void addSection(std::uint32_t id, std::vector<std::uint8_t> payload);

    /** Render the final image (header + payloads + table). */
    std::vector<std::uint8_t> finish() const;

  private:
    struct Section
    {
        std::uint32_t id;
        std::vector<std::uint8_t> payload;
    };

    std::vector<Section> sections_;
};

/** One section payload: a borrowed view into the parsed image. */
struct SectionView
{
    const std::uint8_t *data;
    std::size_t size;
};

/**
 * Validates a snapshot image and exposes its sections as zero-copy
 * views — the image must outlive the reader.
 */
class SnapshotReader
{
  public:
    /**
     * Parse and fully validate @p image (magic, version, table
     * bounds, every section checksum). On failure returns false with
     * a one-line description in @p error. The views handed out by
     * section() point into @p image; keep it alive while they are
     * in use. @p threads > 1 fans the per-section checksums over a
     * worker pool — the result (including which error is reported)
     * is identical for any thread count.
     */
    bool parse(const std::vector<std::uint8_t> &image, std::string &error,
               unsigned threads = 1);

    /** Section payload by id, or nullptr when absent. */
    const SectionView *section(std::uint32_t id) const;

    /** Section ids in file order (after a successful parse). */
    const std::vector<std::uint32_t> &sectionIds() const { return ids_; }

  private:
    std::vector<std::uint32_t> ids_;
    std::vector<SectionView> payloads_;
};

} // namespace eaao::snap

#endif // EAAO_SNAP_FORMAT_HPP
