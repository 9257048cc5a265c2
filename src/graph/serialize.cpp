#include "graph/serialize.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "util/logging.h"

namespace fastgl {
namespace graph {

namespace {

constexpr uint64_t kGraphMagic = 0x464753544C473101ULL;   // "FGSTLG1."
constexpr uint64_t kDatasetMagic = 0x464753544C443101ULL; // "FGSTLD1."

struct FileCloser
{
    void
    operator()(std::FILE *file) const
    {
        if (file)
            std::fclose(file);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool
write_pod(std::FILE *file, const T &value)
{
    return std::fwrite(&value, sizeof(T), 1, file) == 1;
}

template <typename T>
bool
read_pod(std::FILE *file, T &value)
{
    return std::fread(&value, sizeof(T), 1, file) == 1;
}

template <typename T>
bool
write_vector(std::FILE *file, const std::vector<T> &data)
{
    const uint64_t count = data.size();
    if (!write_pod(file, count))
        return false;
    if (count == 0)
        return true;
    return std::fwrite(data.data(), sizeof(T), data.size(), file) ==
           data.size();
}

template <typename T>
bool
read_vector(std::FILE *file, std::vector<T> &data)
{
    uint64_t count = 0;
    if (!read_pod(file, count))
        return false;
    // A count the rest of the file cannot hold is corrupt: refuse it
    // before the resize, not after a bad_alloc.
    struct stat st;
    const long here = std::ftell(file);
    if (here < 0 || fstat(fileno(file), &st) != 0 ||
        count > uint64_t(st.st_size - here) / sizeof(T))
        return false;
    data.resize(static_cast<size_t>(count));
    if (count == 0)
        return true;
    return std::fread(data.data(), sizeof(T), data.size(), file) ==
           data.size();
}

bool
write_graph_body(std::FILE *file, const CsrGraph &graph)
{
    return write_vector(file, graph.indptr()) &&
           write_vector(file, graph.indices());
}

bool
read_graph_body(std::FILE *file, CsrGraph &graph)
{
    std::vector<EdgeId> indptr;
    std::vector<NodeId> indices;
    if (!read_vector(file, indptr) || !read_vector(file, indices))
        return false;
    if (indptr.empty() || indptr.front() != 0 ||
        indptr.back() != EdgeId(indices.size()))
        return false;
    CsrGraph candidate(std::move(indptr), std::move(indices));
    if (!candidate.validate().empty())
        return false;
    graph = std::move(candidate);
    return true;
}

} // namespace

bool
save_graph(const CsrGraph &graph, const std::string &path)
{
    FilePtr file(std::fopen(path.c_str(), "wb"));
    if (!file)
        return false;
    return write_pod(file.get(), kGraphMagic) &&
           write_graph_body(file.get(), graph);
}

bool
load_graph(CsrGraph &graph, const std::string &path)
{
    FilePtr file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return false;
    uint64_t magic = 0;
    if (!read_pod(file.get(), magic) || magic != kGraphMagic)
        return false;
    return read_graph_body(file.get(), graph);
}

bool
save_dataset(const Dataset &dataset, const std::string &path)
{
    FilePtr file(std::fopen(path.c_str(), "wb"));
    if (!file)
        return false;
    if (!write_pod(file.get(), kDatasetMagic))
        return false;

    const uint64_t id = static_cast<uint64_t>(dataset.id);
    const uint64_t name_len = dataset.name.size();
    if (!write_pod(file.get(), id) || !write_pod(file.get(), name_len))
        return false;
    if (name_len > 0 &&
        std::fwrite(dataset.name.data(), 1, name_len, file.get()) !=
            name_len)
        return false;

    const int64_t dim = dataset.features.dim();
    const int64_t classes = dataset.features.num_classes();
    const uint64_t feature_seed = dataset.features.seed();
    const NodeId feature_nodes = dataset.features.num_nodes();
    if (!write_pod(file.get(), dim) || !write_pod(file.get(), classes) ||
        !write_pod(file.get(), feature_seed) ||
        !write_pod(file.get(), feature_nodes) ||
        !write_pod(file.get(), dataset.batch_size) ||
        !write_pod(file.get(), dataset.scale))
        return false;

    return write_vector(file.get(), dataset.train_nodes) &&
           write_graph_body(file.get(), dataset.graph);
}

bool
load_dataset(Dataset &dataset, const std::string &path,
             bool materialize_features)
{
    FilePtr file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return false;
    uint64_t magic = 0;
    if (!read_pod(file.get(), magic) || magic != kDatasetMagic)
        return false;

    Dataset out;
    uint64_t id = 0, name_len = 0;
    if (!read_pod(file.get(), id) || !read_pod(file.get(), name_len))
        return false;
    if (id > uint64_t(DatasetId::kPapers100M) || name_len > 4096)
        return false;
    out.id = static_cast<DatasetId>(id);
    out.name.resize(static_cast<size_t>(name_len));
    if (name_len > 0 &&
        std::fread(out.name.data(), 1, name_len, file.get()) != name_len)
        return false;

    int64_t dim = 0, classes = 0;
    uint64_t feature_seed = 0;
    NodeId feature_nodes = 0;
    if (!read_pod(file.get(), dim) || !read_pod(file.get(), classes) ||
        !read_pod(file.get(), feature_seed) ||
        !read_pod(file.get(), feature_nodes) ||
        !read_pod(file.get(), out.batch_size) ||
        !read_pod(file.get(), out.scale))
        return false;
    // dim and classes are stored as int64 but used as int.
    constexpr int64_t kIntMax = std::numeric_limits<int>::max();
    if (dim <= 0 || dim > kIntMax || classes <= 0 || classes > kIntMax ||
        feature_nodes < 0 || out.batch_size <= 0)
        return false;

    if (!read_vector(file.get(), out.train_nodes) ||
        !read_graph_body(file.get(), out.graph))
        return false;
    if (feature_nodes != out.graph.num_nodes())
        return false;
    for (NodeId u : out.train_nodes) {
        if (u < 0 || u >= out.graph.num_nodes())
            return false;
    }

    out.features =
        FeatureStore(feature_nodes, static_cast<int>(dim),
                     static_cast<int>(classes), feature_seed,
                     materialize_features);
    dataset = std::move(out);
    return true;
}

} // namespace graph
} // namespace fastgl
