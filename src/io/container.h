#ifndef AUTOEM_IO_CONTAINER_H_
#define AUTOEM_IO_CONTAINER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace autoem {
namespace io {

/// The one on-disk container of the library. Models (AEMM, model_io.h)
/// and both checkpoint kinds (AEMK, automl/checkpoint.h) are
///
///   magic | u32 version | u32 section count
///   per section:  u32 id | u64 payload size | u32 crc32(payload) | payload
///
/// with little-endian integers (serialize.h). Each payload carries its own
/// CRC, so a flipped byte anywhere in it is caught before any of it is
/// interpreted. A format names its magic and its version; the reader
/// accepts exactly that version, and within it a fixed set of section ids.
struct ContainerFormat {
  char magic[4];
  uint32_t version;
  /// What the file is and what its section ids name, for error messages
  /// ("model" / "section", "checkpoint" / "kind").
  const char* file;
  const char* id_name;
};

/// One section: its id and a view of its payload bytes.
struct Section {
  uint32_t id = 0;
  std::string_view payload;
};

/// The container bytes of `sections`, written in the given order.
std::string WriteContainer(const ContainerFormat& format,
                           const std::vector<Section>& sections);

/// Reads a container whose sections are exactly `ids`, each once and in
/// any order, and returns their payloads in the order of `ids`, as views
/// into `bytes`. InvalidArgument for a bad magic, any other version,
/// truncation, trailing bytes, a CRC mismatch, and a duplicate, missing or
/// unknown section id.
Result<std::vector<std::string_view>> ReadContainer(
    const ContainerFormat& format, std::string_view bytes,
    const std::vector<uint32_t>& ids);

/// Where one section's fields sit in a container's bytes.
struct SectionRef {
  uint32_t id = 0;
  uint64_t size = 0;       // declared payload size
  uint32_t crc = 0;        // declared crc32
  size_t id_pos = 0;       // offset of the u32 id field
  size_t size_pos = 0;     // offset of the u64 payload-size field
  size_t crc_pos = 0;      // offset of the u32 crc field
  size_t payload_pos = 0;  // offset of the payload bytes
};

/// Walks the section table without looking at the magic, the version or
/// the CRCs: InvalidArgument only when the header or a payload is cut off
/// or bytes trail the last section. ReadContainer's first pass; the fuzz
/// corpus's surgery helpers use it to find the fields they damage.
Result<std::vector<SectionRef>> ListSections(std::string_view bytes);

}  // namespace io
}  // namespace autoem

#endif  // AUTOEM_IO_CONTAINER_H_
