/**
 * @file
 * Binary serialization for index and dataset caching.
 *
 * A tiny tagged binary format: every archive starts with a caller-chosen
 * magic string and a version, so stale caches are rejected instead of
 * mis-read. Only fixed-width little-endian PODs, strings, and vectors
 * of those are supported, which is all the index structures need.
 */

#ifndef ANN_COMMON_SERIALIZE_HH
#define ANN_COMMON_SERIALIZE_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"

namespace ann {

/** Sequential binary writer over a file. */
class BinaryWriter
{
  public:
    /** Open @p path for writing and emit the archive header. */
    BinaryWriter(const std::string &path, const std::string &magic,
                 std::uint32_t version);

    ~BinaryWriter();

    template <typename T>
    void
    writePod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "writePod requires a trivially copyable type");
        writeBytes(&value, sizeof(T));
    }

    void writeString(const std::string &value);

    template <typename T>
    void
    writeVector(const std::vector<T> &values)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "writeVector requires trivially copyable elements");
        writePod<std::uint64_t>(values.size());
        if (!values.empty())
            writeBytes(values.data(), values.size() * sizeof(T));
    }

    /**
     * Append @p size raw bytes (no length prefix). Lets callers
     * stream large payloads chunk-wise — e.g. spilling a node file —
     * instead of materializing one vector for writeVector().
     */
    void
    writeRaw(const void *data, std::size_t size)
    {
        writeBytes(data, size);
    }

    /** Flush and close; throws on I/O failure. */
    void close();

  private:
    void writeBytes(const void *data, std::size_t size);

    std::ofstream out_;
    std::string path_;
    bool closed_ = false;
};

/** Sequential binary reader over a file. */
class BinaryReader
{
  public:
    /**
     * Open @p path and validate the header.
     * @throws FatalError when the file is missing, has a different
     *         magic, or has a different version.
     */
    BinaryReader(const std::string &path, const std::string &magic,
                 std::uint32_t version);

    template <typename T>
    T
    readPod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "readPod requires a trivially copyable type");
        T value{};
        readBytes(&value, sizeof(T));
        return value;
    }

    std::string readString();

    template <typename T>
    std::vector<T>
    readVector()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "readVector requires trivially copyable elements");
        const auto count = readPod<std::uint64_t>();
        checkRemaining(count, sizeof(T));
        std::vector<T> values(count);
        if (count > 0)
            readBytes(values.data(), count * sizeof(T));
        return values;
    }

    /**
     * Read exactly @p size raw bytes (counterpart of writeRaw);
     * throws on short reads.
     */
    void
    readRaw(void *data, std::size_t size)
    {
        readBytes(data, size);
    }

  private:
    void readBytes(void *data, std::size_t size);
    /**
     * Throw unless @p count elements of @p elem_bytes fit in the rest
     * of the file: a corrupt length prefix must fail as a typed error,
     * not as a huge allocation.
     */
    void checkRemaining(std::uint64_t count, std::size_t elem_bytes);

    std::ifstream in_;
    std::string path_;
    std::uint64_t size_ = 0;
};

/** @return true when @p path exists and is a regular file. */
bool fileExists(const std::string &path);

/** Create @p path (and parents) as a directory if needed. */
void ensureDirectory(const std::string &path);

} // namespace ann

#endif // ANN_COMMON_SERIALIZE_HH
