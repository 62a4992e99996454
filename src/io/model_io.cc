#include "io/model_io.h"

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "features/feature_gen.h"
#include "io/atomic_file.h"
#include "io/serialize.h"
#include "obs/obs.h"

namespace autoem {
namespace io {

namespace {

void AppendSection(ModelSection id, const Writer& payload, Writer* file,
                   uint32_t* count) {
  file->U32(static_cast<uint32_t>(id));
  file->U64(payload.size());
  file->U32(Crc32(payload.data()));
  file->Raw(payload.data());
  ++*count;
}

/// Splits the container into {section id: payload} with full bounds and CRC
/// checking. Any structural damage surfaces here as InvalidArgument.
Status ReadSections(const std::string& bytes,
                    std::map<uint32_t, std::string>* sections) {
  Reader r(bytes);
  char magic[4];
  for (char& c : magic) {
    uint8_t b;
    AUTOEM_RETURN_IF_ERROR(r.U8(&b));
    c = static_cast<char>(b);
  }
  if (std::memcmp(magic, kModelMagic, sizeof(kModelMagic)) != 0) {
    return Status::InvalidArgument("not an autoem model file (bad magic)");
  }
  uint32_t version;
  AUTOEM_RETURN_IF_ERROR(r.U32(&version));
  if (version != kModelFormatVersion) {
    return Status::InvalidArgument(
        "unsupported model format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kModelFormatVersion) +
        ")");
  }
  uint32_t count;
  AUTOEM_RETURN_IF_ERROR(r.U32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id;
    uint64_t size;
    uint32_t crc;
    AUTOEM_RETURN_IF_ERROR(r.U32(&id));
    AUTOEM_RETURN_IF_ERROR(r.U64(&size));
    AUTOEM_RETURN_IF_ERROR(r.U32(&crc));
    if (size > r.remaining()) {
      return Status::InvalidArgument("truncated model file: section " +
                                     std::to_string(id) + " payload cut off");
    }
    std::string payload = bytes.substr(r.pos(), static_cast<size_t>(size));
    if (Crc32(payload) != crc) {
      return Status::InvalidArgument("corrupt model file: section " +
                                     std::to_string(id) + " CRC mismatch");
    }
    if (!sections->emplace(id, std::move(payload)).second) {
      return Status::InvalidArgument("corrupt model file: duplicate section " +
                                     std::to_string(id));
    }
    AUTOEM_RETURN_IF_ERROR(r.Skip(static_cast<size_t>(size)));
  }
  if (r.remaining() != 0) {
    return Status::InvalidArgument("corrupt model file: trailing bytes");
  }
  return Status::OK();
}

Status RequireSection(const std::map<uint32_t, std::string>& sections,
                      ModelSection id, const std::string** payload) {
  auto it = sections.find(static_cast<uint32_t>(id));
  if (it == sections.end()) {
    return Status::InvalidArgument(
        "corrupt model file: missing section " +
        std::to_string(static_cast<uint32_t>(id)));
  }
  *payload = &it->second;
  return Status::OK();
}

}  // namespace

Status SerializeModel(const EntityMatcher& matcher, std::string* out) {
  Writer meta;
  meta.Str("autoem");
  meta.F64(matcher.automl_result().best_valid_f1);

  Writer generator;
  generator.Str(matcher.feature_generator().name());
  AUTOEM_RETURN_IF_ERROR(matcher.feature_generator().SaveState(&generator));

  Writer pipeline;
  AUTOEM_RETURN_IF_ERROR(matcher.automl_result().model.SaveFitted(&pipeline));

  Writer file;
  for (char c : kModelMagic) file.U8(static_cast<uint8_t>(c));
  file.U32(kModelFormatVersion);
  Writer body;
  uint32_t count = 0;
  AppendSection(ModelSection::kMeta, meta, &body, &count);
  AppendSection(ModelSection::kGenerator, generator, &body, &count);
  AppendSection(ModelSection::kPipeline, pipeline, &body, &count);
  file.U32(count);
  *out = file.data() + body.data();
  return Status::OK();
}

Result<EntityMatcher> DeserializeModel(const std::string& bytes) {
  std::map<uint32_t, std::string> sections;
  AUTOEM_RETURN_IF_ERROR(ReadSections(bytes, &sections));

  const std::string* payload = nullptr;
  AUTOEM_RETURN_IF_ERROR(
      RequireSection(sections, ModelSection::kMeta, &payload));
  Reader meta(*payload);
  std::string producer;
  double best_valid_f1;
  AUTOEM_RETURN_IF_ERROR(meta.Str(&producer));
  AUTOEM_RETURN_IF_ERROR(meta.F64(&best_valid_f1));

  AUTOEM_RETURN_IF_ERROR(
      RequireSection(sections, ModelSection::kGenerator, &payload));
  Reader gen_reader(*payload);
  std::string generator_name;
  AUTOEM_RETURN_IF_ERROR(gen_reader.Str(&generator_name));
  auto generator = CreateFeatureGenerator(generator_name);
  if (!generator.ok()) return generator.status();
  AUTOEM_RETURN_IF_ERROR((*generator)->LoadState(&gen_reader));

  AUTOEM_RETURN_IF_ERROR(
      RequireSection(sections, ModelSection::kPipeline, &payload));
  Reader pipe_reader(*payload);
  auto pipeline = EmPipeline::LoadFitted(&pipe_reader);
  if (!pipeline.ok()) return pipeline.status();
  AUTOEM_RETURN_IF_ERROR(pipeline->CheckWidths((*generator)->num_features()));

  AutoMlEmResult automl;
  automl.model = std::move(*pipeline);
  automl.best_config = automl.model.config();
  automl.best_valid_f1 = best_valid_f1;
  return EntityMatcher::FromFitted(std::move(*generator), std::move(automl));
}

Status SaveModel(const EntityMatcher& matcher, const std::string& path) {
  obs::Span span("model.save");
  if (span.active()) span.Arg("path", path);
  std::string bytes;
  AUTOEM_RETURN_IF_ERROR(SerializeModel(matcher, &bytes));
  AUTOEM_RETURN_IF_ERROR(AtomicWriteFile(path, bytes));
  AUTOEM_LOG(INFO) << "saved model (" << bytes.size() << " bytes) to "
                   << path;
  return Status::OK();
}

Result<EntityMatcher> LoadModel(const std::string& path) {
  obs::Span span("model.load");
  if (span.active()) span.Arg("path", path);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IOError("read failed: " + path);
  return DeserializeModel(buf.str());
}

}  // namespace io
}  // namespace autoem
