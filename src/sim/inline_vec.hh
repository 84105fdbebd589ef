/**
 * @file
 * InlineVec: a small sequence that keeps its first N elements inside
 * the object and spills to the heap only when it grows past them.
 */

#ifndef DSM_SIM_INLINE_VEC_HH
#define DSM_SIM_INLINE_VEC_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dsm {

/**
 * Sequence of trivially copyable @p T with inline capacity @p N. The
 * first push past N moves every element to a heap vector, which then
 * holds them all, so iteration is always over one contiguous range in
 * insertion order. Copies and moves keep every element, inline or
 * spilled.
 */
template <typename T, std::size_t N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "inline elements are copied as bytes");
    static_assert(N > 0, "use std::vector for no inline capacity");

  public:
    InlineVec() = default;
    // Moves copy too, so a moved-from vector stays valid; only a
    // spilled vector pays for it, with one heap copy.
    InlineVec(const InlineVec &) = default;
    InlineVec &operator=(const InlineVec &) = default;

    void
    push_back(const T &v)
    {
        if (_size < N) {
            std::construct_at(inlineData() + _size, v);
        } else {
            if (_size == N) {
                _heap.reserve(2 * N);
                _heap.assign(inlineData(), inlineData() + N);
            }
            _heap.push_back(v);
        }
        ++_size;
    }

    const T *begin() const { return spilled() ? _heap.data() : inlineData(); }
    const T *end() const { return begin() + _size; }

    T &operator[](std::size_t i)
    {
        return (spilled() ? _heap.data() : inlineData())[i];
    }
    const T &operator[](std::size_t i) const { return begin()[i]; }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** True once the elements have moved to the heap. */
    bool spilled() const { return _size > N; }

  private:
    T *inlineData() { return reinterpret_cast<T *>(_inline); }
    const T *
    inlineData() const
    {
        return reinterpret_cast<const T *>(_inline);
    }

    alignas(T) unsigned char _inline[N * sizeof(T)];
    std::uint32_t _size = 0;
    std::vector<T> _heap;
};

} // namespace dsm

#endif // DSM_SIM_INLINE_VEC_HH
