#include "io/container.h"

#include <algorithm>
#include <cstring>

#include "io/serialize.h"

namespace autoem {
namespace io {

std::string WriteContainer(const ContainerFormat& format,
                           const std::vector<Section>& sections) {
  Writer w;
  w.Raw(std::string_view(format.magic, sizeof(format.magic)));
  w.U32(format.version);
  w.U32(static_cast<uint32_t>(sections.size()));
  for (const Section& section : sections) {
    w.U32(section.id);
    w.U64(section.payload.size());
    w.U32(Crc32(section.payload));
    w.Raw(section.payload);
  }
  return w.data();
}

Result<std::vector<SectionRef>> ListSections(std::string_view bytes) {
  Reader r(bytes);
  uint32_t version;
  uint32_t count;
  AUTOEM_RETURN_IF_ERROR(r.Skip(sizeof(ContainerFormat::magic)));
  AUTOEM_RETURN_IF_ERROR(r.U32(&version));
  AUTOEM_RETURN_IF_ERROR(r.U32(&count));
  std::vector<SectionRef> sections;
  for (uint32_t i = 0; i < count; ++i) {
    SectionRef ref;
    ref.id_pos = r.pos();
    AUTOEM_RETURN_IF_ERROR(r.U32(&ref.id));
    ref.size_pos = r.pos();
    AUTOEM_RETURN_IF_ERROR(r.U64(&ref.size));
    ref.crc_pos = r.pos();
    AUTOEM_RETURN_IF_ERROR(r.U32(&ref.crc));
    ref.payload_pos = r.pos();
    if (ref.size > r.remaining()) {
      return Status::InvalidArgument("truncated: section " +
                                     std::to_string(ref.id) +
                                     " payload cut off");
    }
    AUTOEM_RETURN_IF_ERROR(r.Skip(static_cast<size_t>(ref.size)));
    sections.push_back(ref);
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after the last section");
  }
  return sections;
}

Result<std::vector<std::string_view>> ReadContainer(
    const ContainerFormat& format, std::string_view bytes,
    const std::vector<uint32_t>& ids) {
  const std::string file = format.file;
  if (bytes.size() < sizeof(format.magic) ||
      std::memcmp(bytes.data(), format.magic, sizeof(format.magic)) != 0) {
    return Status::InvalidArgument("not an autoem " + file +
                                   " file (bad magic)");
  }
  Reader header(bytes.substr(sizeof(format.magic)));
  uint32_t version;
  AUTOEM_RETURN_IF_ERROR(header.U32(&version));
  if (version != format.version) {
    return Status::InvalidArgument(
        "unsupported " + file + " format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(format.version) + ")");
  }
  auto sections = ListSections(bytes);
  if (!sections.ok()) {
    return Status::InvalidArgument("corrupt " + file + " file: " +
                                   sections.status().message());
  }

  std::vector<std::string_view> payloads(ids.size());
  std::vector<bool> seen(ids.size(), false);
  for (const SectionRef& section : *sections) {
    const std::string name =
        std::string(format.id_name) + " " + std::to_string(section.id);
    const size_t k = static_cast<size_t>(
        std::find(ids.begin(), ids.end(), section.id) - ids.begin());
    if (k == ids.size()) {
      return Status::InvalidArgument(file + " file: unknown " + name);
    }
    if (seen[k]) {
      return Status::InvalidArgument("corrupt " + file +
                                     " file: duplicate " + name);
    }
    std::string_view payload = bytes.substr(
        section.payload_pos, static_cast<size_t>(section.size));
    if (Crc32(payload) != section.crc) {
      return Status::InvalidArgument("corrupt " + file + " file: " + name +
                                     " CRC mismatch");
    }
    seen[k] = true;
    payloads[k] = payload;
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    if (!seen[k]) {
      return Status::InvalidArgument("corrupt " + file + " file: missing " +
                                     format.id_name + " " +
                                     std::to_string(ids[k]));
    }
  }
  return payloads;
}

}  // namespace io
}  // namespace autoem
