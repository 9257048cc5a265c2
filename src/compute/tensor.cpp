#include "compute/tensor.h"

#include <algorithm>

#include "util/logging.h"

namespace fastgl {
namespace compute {

Tensor::Tensor(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows * cols), 0.0f)
{
    FASTGL_CHECK(rows >= 0 && cols >= 0, "negative tensor shape");
}

Tensor::Tensor(const Tensor &other)
    : rows_(other.rows_), cols_(other.cols_)
{
    if (other.numel() > 0)
        data_.assign(other.data(), other.data() + other.numel());
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this == &other)
        return *this;
    rows_ = other.rows_;
    cols_ = other.cols_;
    view_ = nullptr;
    data_.clear();
    if (other.numel() > 0)
        data_.assign(other.data(), other.data() + other.numel());
    return *this;
}

Tensor
Tensor::zeros(int64_t rows, int64_t cols)
{
    return Tensor(rows, cols);
}

Tensor
Tensor::view(float *data, int64_t rows, int64_t cols)
{
    FASTGL_CHECK(rows >= 0 && cols >= 0, "negative tensor shape");
    FASTGL_CHECK(data != nullptr || rows * cols == 0,
                 "null storage behind a non-empty view");
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.view_ = data;
    return t;
}

void
Tensor::reshape(int64_t rows, int64_t cols)
{
    FASTGL_CHECK(rows >= 0 && cols >= 0, "negative tensor shape");
    const size_t n = static_cast<size_t>(rows * cols);
    view_ = nullptr;
    if (data_.size() < n) {
        data_.clear(); // nothing to keep: growing copies no element
        data_.resize(n);
    }
    rows_ = rows;
    cols_ = cols;
}

Tensor
Tensor::randn(int64_t rows, int64_t cols, util::Rng &rng, float scale)
{
    Tensor t(rows, cols);
    for (auto &x : t.data_)
        x = rng.next_gaussian(0.0f, scale);
    return t;
}

void
Tensor::fill_zero()
{
    std::fill(data(), data() + numel(), 0.0f);
}

void
Tensor::fill(float value)
{
    std::fill(data(), data() + numel(), value);
}

double
Tensor::sum_squares() const
{
    double acc = 0.0;
    const float *p = data();
    for (int64_t i = 0; i < numel(); ++i)
        acc += double(p[i]) * double(p[i]);
    return acc;
}

void
Tensor::add_scaled(const Tensor &other, float alpha)
{
    FASTGL_CHECK(same_shape(other), "shape mismatch in add_scaled");
    float *dst = data();
    const float *src = other.data();
    for (int64_t i = 0; i < numel(); ++i)
        dst[i] += alpha * src[i];
}

} // namespace compute
} // namespace fastgl
