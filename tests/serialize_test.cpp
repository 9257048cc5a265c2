/**
 * @file
 * Round-trip and corruption tests for graph/dataset serialization.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/serialize.h"

namespace fastgl {
namespace {

std::string
temp_path(const char *name)
{
    return std::string("/tmp/fastgl_serialize_") + name + ".bin";
}

TEST(Serialize, GraphRoundTrip)
{
    graph::RmatParams params;
    params.num_nodes = 1000;
    params.num_edges = 8000;
    params.seed = 77;
    graph::CsrGraph original = graph::generate_rmat(params);

    const std::string path = temp_path("graph");
    ASSERT_TRUE(graph::save_graph(original, path));

    graph::CsrGraph loaded;
    ASSERT_TRUE(graph::load_graph(loaded, path));
    EXPECT_EQ(loaded.indptr(), original.indptr());
    EXPECT_EQ(loaded.indices(), original.indices());
    std::remove(path.c_str());
}

TEST(Serialize, EmptyGraphRoundTrip)
{
    graph::CsrGraph original;
    const std::string path = temp_path("empty");
    ASSERT_TRUE(graph::save_graph(original, path));
    graph::CsrGraph loaded({0, 1}, {0});
    ASSERT_TRUE(graph::load_graph(loaded, path));
    EXPECT_EQ(loaded.num_nodes(), 0);
    std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsMissingFile)
{
    graph::CsrGraph graph;
    EXPECT_FALSE(graph::load_graph(graph, "/tmp/does_not_exist_xyz.bin"));
}

TEST(Serialize, LoadRejectsBadMagic)
{
    const std::string path = temp_path("badmagic");
    FILE *f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "not a fastgl file at all";
    fwrite(junk, 1, sizeof(junk), f);
    fclose(f);
    graph::CsrGraph graph;
    EXPECT_FALSE(graph::load_graph(graph, path));
    std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsTruncatedFile)
{
    graph::RmatParams params;
    params.num_nodes = 500;
    params.num_edges = 3000;
    graph::CsrGraph original = graph::generate_rmat(params);
    const std::string path = temp_path("truncated");
    ASSERT_TRUE(graph::save_graph(original, path));

    // Truncate to half.
    FILE *f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    const long size = ftell(f);
    fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

    graph::CsrGraph loaded;
    EXPECT_FALSE(graph::load_graph(loaded, path));
    std::remove(path.c_str());
}

TEST(Serialize, DatasetRoundTripPreservesEverything)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.05;
    ropts.materialize_features = false;
    const graph::Dataset original =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    const std::string path = temp_path("dataset");
    ASSERT_TRUE(graph::save_dataset(original, path));

    graph::Dataset loaded;
    ASSERT_TRUE(
        graph::load_dataset(loaded, path, /*materialize=*/false));
    EXPECT_EQ(loaded.id, original.id);
    EXPECT_EQ(loaded.name, original.name);
    EXPECT_EQ(loaded.batch_size, original.batch_size);
    EXPECT_DOUBLE_EQ(loaded.scale, original.scale);
    EXPECT_EQ(loaded.train_nodes, original.train_nodes);
    EXPECT_EQ(loaded.graph.indices(), original.graph.indices());
    EXPECT_EQ(loaded.features.dim(), original.features.dim());
    EXPECT_EQ(loaded.features.num_classes(),
              original.features.num_classes());

    // Features regenerate identically from the stored seed.
    std::vector<float> a(size_t(original.features.dim()));
    std::vector<float> b(size_t(loaded.features.dim()));
    original.features.gather_row(42, a.data());
    loaded.features.gather_row(42, b.data());
    EXPECT_EQ(a, b);
    EXPECT_EQ(original.features.label(42), loaded.features.label(42));
    std::remove(path.c_str());
}

TEST(Serialize, DatasetLoadRejectsGraphMagic)
{
    graph::CsrGraph g({0, 1}, {0});
    const std::string path = temp_path("wrongtype");
    ASSERT_TRUE(graph::save_graph(g, path));
    graph::Dataset ds;
    EXPECT_FALSE(graph::load_dataset(ds, path));
    std::remove(path.c_str());
}

/** Overwrite the eight bytes at @p offset of file @p path. */
void
patch_u64(const std::string &path, long offset, uint64_t value)
{
    FILE *f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(fwrite(&value, sizeof(value), 1, f), 1u);
    fclose(f);
}

TEST(Serialize, DatasetLoadRejectsDimAndClassesWiderThanInt)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.02;
    ropts.materialize_features = false;
    const graph::Dataset original =
        graph::load_replica(graph::DatasetId::kReddit, ropts);
    // Header: magic, id, name length, name, then dim and classes.
    const long dim_at = long(3 * sizeof(uint64_t) + original.name.size());
    for (const long field : {dim_at, dim_at + 8}) {
        const std::string path = temp_path("wide_header");
        ASSERT_TRUE(graph::save_dataset(original, path));
        // 2^32 + 602 would narrow to 602 and load.
        patch_u64(path, field, (uint64_t(1) << 32) + 602);
        graph::Dataset loaded;
        EXPECT_FALSE(graph::load_dataset(loaded, path, false))
            << "field at byte " << field;
        std::remove(path.c_str());
    }
}

TEST(Serialize, DatasetLoadRejectsShapesPastTheFeatureBudget)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.02;
    ropts.materialize_features = false;
    const graph::Dataset original =
        graph::load_replica(graph::DatasetId::kReddit, ropts);
    const long dim_at = long(3 * sizeof(uint64_t) + original.name.size());
    const std::string path = temp_path("feature_budget");
    ASSERT_TRUE(graph::save_dataset(original, path));
    graph::Dataset loaded;
    // dim = classes = INT_MAX asks for 2^64 bytes of centroids alone.
    patch_u64(path, dim_at, std::numeric_limits<int>::max());
    patch_u64(path, dim_at + 8, std::numeric_limits<int>::max());
    EXPECT_FALSE(graph::load_dataset(loaded, path, false));
    EXPECT_FALSE(graph::load_dataset(loaded, path, true));
    // 2^24-wide rows: the 41 centroids fit the budget (2.6 GiB), the
    // materialised rows do not (2^24 floats per node).
    patch_u64(path, dim_at, uint64_t(1) << 24);
    patch_u64(path, dim_at + 8, 41);
    EXPECT_GT(original.graph.num_nodes(), 64);
    EXPECT_FALSE(graph::load_dataset(loaded, path, true));
    std::remove(path.c_str());
}

TEST(Serialize, LoadRejectsVectorCountBeyondFileSize)
{
    graph::CsrGraph g({0, 1, 2}, {1, 0});
    const std::string path = temp_path("oversized");
    ASSERT_TRUE(graph::save_graph(g, path));
    // The indptr count follows the magic. 2^33 int64 entries (64 GiB)
    // is far past the file's end: rejected before any allocation.
    patch_u64(path, 8, uint64_t(1) << 33);
    graph::CsrGraph loaded;
    EXPECT_FALSE(graph::load_graph(loaded, path));
    // One entry more than the rest of the file holds fails too.
    patch_u64(path, 8, 3 + 1 + 2 + 1);
    EXPECT_FALSE(graph::load_graph(loaded, path));
    std::remove(path.c_str());
}

} // namespace
} // namespace fastgl
