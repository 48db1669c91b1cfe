#include "common/serialize.hh"

#include <filesystem>

namespace ann {

BinaryWriter::BinaryWriter(const std::string &path,
                           const std::string &magic,
                           std::uint32_t version)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    ANN_CHECK(out_.is_open(), "cannot open for writing: ", path);
    writeString(magic);
    writePod(version);
}

BinaryWriter::~BinaryWriter()
{
    if (!closed_) {
        // Destructor flush; errors surface on explicit close() only.
        out_.flush();
    }
}

void
BinaryWriter::writeString(const std::string &value)
{
    writePod<std::uint64_t>(value.size());
    writeBytes(value.data(), value.size());
}

void
BinaryWriter::close()
{
    out_.flush();
    ANN_CHECK(out_.good(), "write failure on ", path_);
    out_.close();
    closed_ = true;
}

void
BinaryWriter::writeBytes(const void *data, std::size_t size)
{
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(size));
}

BinaryReader::BinaryReader(const std::string &path,
                           const std::string &magic,
                           std::uint32_t version)
    : in_(path, std::ios::binary), path_(path)
{
    ANN_CHECK(in_.is_open(), "cannot open for reading: ", path);
    std::error_code ec;
    size_ = std::filesystem::file_size(path, ec);
    ANN_CHECK(!ec, "cannot stat ", path, ": ", ec.message());
    const std::string found_magic = readString();
    ANN_CHECK(found_magic == magic, "bad magic in ", path, ": expected '",
              magic, "' found '", found_magic, "'");
    const auto found_version = readPod<std::uint32_t>();
    ANN_CHECK(found_version == version, "bad version in ", path,
              ": expected ", version, " found ", found_version);
}

std::string
BinaryReader::readString()
{
    const auto size = readPod<std::uint64_t>();
    checkRemaining(size, 1);
    std::string value(size, '\0');
    readBytes(value.data(), size);
    return value;
}

void
BinaryReader::readBytes(void *data, std::size_t size)
{
    in_.read(static_cast<char *>(data),
             static_cast<std::streamsize>(size));
    ANN_CHECK(static_cast<std::size_t>(in_.gcount()) == size,
              "short read from ", path_);
}

void
BinaryReader::checkRemaining(std::uint64_t count, std::size_t elem_bytes)
{
    const auto pos = static_cast<std::uint64_t>(in_.tellg());
    const std::uint64_t left = pos <= size_ ? size_ - pos : 0;
    ANN_CHECK(count <= left / elem_bytes, "corrupt archive ", path_,
              ": length ", count, " exceeds the ", left,
              " bytes left");
}

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec);
}

void
ensureDirectory(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    ANN_CHECK(!ec, "cannot create directory ", path, ": ", ec.message());
}

} // namespace ann
