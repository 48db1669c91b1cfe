#include "quant/product_quantizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kmeans.hh"
#include "common/error.hh"
#include "common/serialize.hh"
#include "common/thread_pool.hh"
#include "distance/distance.hh"

namespace ann {

void
ProductQuantizer::train(const MatrixView &data, const PqParams &params)
{
    ANN_CHECK(params.m > 0, "pq needs at least one subquantizer");
    ANN_CHECK(data.dim % params.m == 0, "pq m=", params.m,
              " must divide dim=", data.dim);
    ANN_CHECK(params.ksub >= 2 && params.ksub <= 256,
              "pq ksub must be in [2, 256], got ", params.ksub);
    ANN_CHECK(data.rows >= params.ksub,
              "pq training needs at least ksub points");

    dim_ = data.dim;
    m_ = params.m;
    ksub_ = params.ksub;
    subDim_ = dim_ / m_;
    codebooks_.assign(m_ * ksub_ * subDim_, 0.0f);

    // Train each subspace independently. The sub-vectors are strided
    // inside the rows, so gather them into a contiguous buffer first.
    std::vector<float> sub_data(data.rows * subDim_);
    for (std::size_t sub = 0; sub < m_; ++sub) {
        for (std::size_t r = 0; r < data.rows; ++r) {
            const float *src = data.row(r) + sub * subDim_;
            std::copy_n(src, subDim_, sub_data.data() + r * subDim_);
        }
        KMeansParams km;
        km.k = ksub_;
        km.max_iters = params.train_iters;
        km.subsample = params.train_subsample;
        km.seed = params.seed + sub * 1000003;
        const MatrixView sub_view{sub_data.data(), data.rows, subDim_};
        const KMeansResult model = kmeansFit(sub_view, km);
        std::copy(model.centroids.begin(), model.centroids.end(),
                  codebooks_.begin() + sub * ksub_ * subDim_);
    }
}

void
ProductQuantizer::encode(const float *vec, std::uint8_t *codes) const
{
    ANN_ASSERT(trained(), "encode on untrained quantizer");
    for (std::size_t sub = 0; sub < m_; ++sub) {
        const float *sub_vec = vec + sub * subDim_;
        float best = std::numeric_limits<float>::max();
        std::size_t best_code = 0;
        for (std::size_t c = 0; c < ksub_; ++c) {
            const float d =
                l2DistanceSq(sub_vec, codeword(sub, c), subDim_);
            if (d < best) {
                best = d;
                best_code = c;
            }
        }
        codes[sub] = static_cast<std::uint8_t>(best_code);
    }
}

std::vector<std::uint8_t>
ProductQuantizer::encodeAll(const MatrixView &data) const
{
    ANN_CHECK(data.dim == dim_, "dimension mismatch in encodeAll");
    std::vector<std::uint8_t> codes(data.rows * codeSize());
    // Rows are independent and each writes only its own code slot, so
    // the parallel loop is bit-identical to the serial one.
    ThreadPool::global().parallelFor(
        data.rows, 256, [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r)
                encode(data.row(r), codes.data() + r * codeSize());
        });
    return codes;
}

void
ProductQuantizer::decode(const std::uint8_t *codes, float *out) const
{
    ANN_ASSERT(trained(), "decode on untrained quantizer");
    for (std::size_t sub = 0; sub < m_; ++sub)
        std::copy_n(codeword(sub, codes[sub]), subDim_,
                    out + sub * subDim_);
}

AdcTable
ProductQuantizer::computeAdcTable(const float *query) const
{
    AdcTable table;
    computeAdcTable(query, table);
    return table;
}

void
ProductQuantizer::computeAdcTable(const float *query,
                                  AdcTable &table) const
{
    ANN_ASSERT(trained(), "adc table on untrained quantizer");
    table.m = m_;
    table.ksub = ksub_;
    table.entries.resize(m_ * ksub_);
    for (std::size_t sub = 0; sub < m_; ++sub) {
        const float *sub_query = query + sub * subDim_;
        float *row = table.entries.data() + sub * ksub_;
        for (std::size_t c = 0; c < ksub_; ++c)
            row[c] = l2DistanceSq(sub_query, codeword(sub, c), subDim_);
    }
}

float
ProductQuantizer::adcDistance(const AdcTable &table,
                              const std::uint8_t *codes) const
{
    ANN_ASSERT(table.m == m_ && table.ksub == ksub_,
               "adc table shape mismatch");
    return pqAdcDistance(table.entries.data(), m_, ksub_, codes);
}

void
ProductQuantizer::adcDistanceBatch4(const AdcTable &table,
                                    const std::uint8_t *const codes[4],
                                    float out[4]) const
{
    ANN_ASSERT(table.m == m_ && table.ksub == ksub_,
               "adc table shape mismatch");
    pqAdcDistanceBatch4(table.entries.data(), m_, ksub_, codes, out);
}

float
ProductQuantizer::reconstructedDistance(const float *query,
                                        const std::uint8_t *codes) const
{
    std::vector<float> decoded(dim_);
    decode(codes, decoded.data());
    return l2DistanceSq(query, decoded.data(), dim_);
}

void
ProductQuantizer::save(BinaryWriter &writer) const
{
    writer.writePod<std::uint64_t>(dim_);
    writer.writePod<std::uint64_t>(m_);
    writer.writePod<std::uint64_t>(ksub_);
    writer.writeVector(codebooks_);
}

void
ProductQuantizer::load(BinaryReader &reader)
{
    dim_ = reader.readPod<std::uint64_t>();
    m_ = reader.readPod<std::uint64_t>();
    ksub_ = reader.readPod<std::uint64_t>();
    // Codes are one byte per subspace and index the codebooks, so
    // every field bounds a later table lookup.
    ANN_CHECK(m_ > 0 && m_ <= dim_ && dim_ % m_ == 0 && ksub_ > 0 &&
                  ksub_ <= 256,
              "corrupt product quantizer archive (shape)");
    subDim_ = dim_ / m_;
    codebooks_ = reader.readVector<float>();
    ANN_CHECK(codebooks_.size() == m_ * ksub_ * subDim_,
              "corrupt product quantizer archive");
    for (const float value : codebooks_)
        ANN_CHECK(std::isfinite(value),
                  "corrupt product quantizer archive (codebook)");
}

} // namespace ann
