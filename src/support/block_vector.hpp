/**
 * @file
 * Append-only table stored in fixed power-of-two blocks.
 *
 * The orchestrator keeps one record per instance ever created, and a
 * large sweep point creates ~110k of them (14 MB of 128-byte records).
 * Grown as one doubling std::vector, such a table is a single mmapped
 * allocation past glibc's 128 KiB threshold; freeing it raises glibc's
 * dynamic mmap and trim thresholds, so the next tables of that size
 * come from the arena and stay resident after they are freed. When
 * the paper sweeps run as parallel trials, four such tables grow at
 * once and the process keeps their peak long after.
 *
 * This table stores records in blocks of 2^Shift records (256 x 128 B
 * = 32 KiB for instance records), well under that threshold, so every
 * allocation is an ordinary arena chunk that is reused once freed. A
 * push_back allocates a new block only at a block boundary and never
 * moves a record, so references and pointers into the table stay valid
 * as it grows. Record i lives at block `i >> Shift`, slot
 * `i & (2^Shift - 1)`.
 */

#ifndef EAAO_SUPPORT_BLOCK_VECTOR_HPP
#define EAAO_SUPPORT_BLOCK_VECTOR_HPP

#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace eaao::support {

/** Block-stable append-only table (see the file comment). */
template <typename T, unsigned Shift = 8>
class BlockVector
{
    static constexpr std::size_t kBlock = std::size_t{1} << Shift;
    static constexpr std::size_t kMask = kBlock - 1;
    static_assert(sizeof(T) * kBlock <= 64 * 1024,
                  "a block must stay well under glibc's 128 KiB mmap "
                  "threshold");

  public:
    using value_type = T;

    /** Forward iterator over the records in id order. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using reference = const T &;
        using pointer = const T *;

        const_iterator() = default;
        const_iterator(const BlockVector *table, std::size_t i)
            : table_(table), i_(i)
        {
        }

        reference operator*() const { return (*table_)[i_]; }
        pointer operator->() const { return &(*table_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator before = *this;
            ++i_;
            return before;
        }

        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const BlockVector *table_ = nullptr;
        std::size_t i_ = 0;
    };

    BlockVector() = default;

    BlockVector(BlockVector &&other) noexcept { *this = std::move(other); }

    /** Take @p other's blocks; @p other is left empty and usable. */
    BlockVector &
    operator=(BlockVector &&other) noexcept
    {
        if (this != &other) {
            blocks_ = std::move(other.blocks_);
            other.blocks_.clear();
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return blocks_[i >> Shift][i & kMask]; }

    const T &
    operator[](std::size_t i) const
    {
        return blocks_[i >> Shift][i & kMask];
    }

    /** Append @p value, opening a new block at a block boundary. */
    void
    push_back(T value)
    {
        if ((size_ & kMask) == 0)
            blocks_.push_back(std::make_unique<T[]>(kBlock));
        (*this)[size_++] = std::move(value);
    }

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::vector<std::unique_ptr<T[]>> blocks_;
    std::size_t size_ = 0;
};

} // namespace eaao::support

#endif // EAAO_SUPPORT_BLOCK_VECTOR_HPP
