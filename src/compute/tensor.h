/**
 * @file
 * Minimal dense row-major float matrix used by the GNN numerics.
 *
 * FastGL's contribution is systems-level; the numerics only need to be
 * correct (for the convergence experiment, Fig. 16) and shaped like the
 * real workload (for the timing model), so a small purpose-built tensor
 * beats pulling in a BLAS dependency.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace fastgl {
namespace compute {

/** Dense [rows x cols] float matrix, row major. */
class Tensor
{
  public:
    Tensor() = default;

    /** Zero-initialised matrix. */
    Tensor(int64_t rows, int64_t cols);

    /**
     * Copies are always deep and owning — copying a view materialises
     * the borrowed storage (exactly what e.g. GAT's saved-input capture
     * needs), so no copy ever outlives someone else's buffer. Copy
     * assignment reuses this tensor's allocation when it is large
     * enough. The model's forward and backward copy no batch-sized
     * tensor but GAT's saved input (docs/compute_kernels.md, "What
     * forward keeps").
     */
    Tensor(const Tensor &other);
    Tensor &operator=(const Tensor &other);
    /** Moves preserve view-ness (a moved view still borrows). */
    Tensor(Tensor &&other) noexcept = default;
    Tensor &operator=(Tensor &&other) noexcept = default;

    /** All-zeros factory (alias of the constructor, reads better). */
    static Tensor zeros(int64_t rows, int64_t cols);

    /** Gaussian init with std @p scale (Glorot-style when scaled). */
    static Tensor randn(int64_t rows, int64_t cols, util::Rng &rng,
                        float scale);

    /**
     * Non-owning view over external row-major storage — the zero-copy
     * bridge from a match::FeaturePanel (gathered feature rows in arena
     * memory) into the GNN forward pass. The storage must stay alive
     * and fixed for the lifetime of the view; writing through the view
     * writes the external buffer (input dropout relies on this).
     */
    static Tensor view(float *data, int64_t rows, int64_t cols);

    /** True when this tensor borrows external storage (a view). */
    bool is_view() const { return view_ != nullptr; }

    /**
     * Make this an owning [rows x cols] tensor whose element values are
     * unspecified: the caller overwrites every element or calls
     * fill_zero(). The allocation is kept whenever it already holds
     * rows*cols floats, so a layer that reshapes the same tensor every
     * step allocates only when a step outgrows every earlier one. A
     * view stops borrowing.
     */
    void reshape(int64_t rows, int64_t cols);

    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    int64_t numel() const { return rows_ * cols_; }

    float &
    at(int64_t r, int64_t c)
    {
        return data()[static_cast<size_t>(r * cols_ + c)];
    }
    float
    at(int64_t r, int64_t c) const
    {
        return data()[static_cast<size_t>(r * cols_ + c)];
    }

    /** Mutable view of row @p r. */
    std::span<float>
    row(int64_t r)
    {
        return {data() + r * cols_, static_cast<size_t>(cols_)};
    }
    std::span<const float>
    row(int64_t r) const
    {
        return {data() + r * cols_, static_cast<size_t>(cols_)};
    }

    float *data() { return view_ ? view_ : data_.data(); }
    const float *data() const { return view_ ? view_ : data_.data(); }

    /** Set every element to zero. */
    void fill_zero();

    /** Set every element to @p value. */
    void fill(float value);

    /** Frobenius-norm squared. */
    double sum_squares() const;

    /** this += alpha * other (shapes must match). */
    void add_scaled(const Tensor &other, float alpha);

    /** True when shapes match. */
    bool
    same_shape(const Tensor &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_;
    }

  private:
    int64_t rows_ = 0;
    int64_t cols_ = 0;
    std::vector<float> data_; ///< At least numel() floats when owning.
    float *view_ = nullptr; ///< Non-null when borrowing external storage.
};

/** A trainable tensor with its gradient buffer. */
struct Parameter
{
    Tensor value;
    Tensor grad;

    Parameter() = default;
    explicit Parameter(Tensor init)
        : value(std::move(init)), grad(value.rows(), value.cols())
    {}

    void zero_grad() { grad.fill_zero(); }
    int64_t numel() const { return value.numel(); }
};

} // namespace compute
} // namespace fastgl
