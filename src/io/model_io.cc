#include "io/model_io.h"

#include <utility>

#include "features/feature_gen.h"
#include "io/atomic_file.h"
#include "io/container.h"
#include "io/serialize.h"
#include "obs/obs.h"

namespace autoem {
namespace io {

Status SerializeModel(const EntityMatcher& matcher, std::string* out) {
  Writer meta;
  meta.Str("autoem");
  meta.F64(matcher.automl_result().best_valid_f1);

  Writer generator;
  generator.Str(matcher.feature_generator().name());
  AUTOEM_RETURN_IF_ERROR(matcher.feature_generator().SaveState(&generator));

  Writer pipeline;
  AUTOEM_RETURN_IF_ERROR(matcher.automl_result().model.SaveFitted(&pipeline));

  *out = WriteContainer(
      kModelFormat,
      {{static_cast<uint32_t>(ModelSection::kMeta), meta.data()},
       {static_cast<uint32_t>(ModelSection::kGenerator), generator.data()},
       {static_cast<uint32_t>(ModelSection::kPipeline), pipeline.data()}});
  return Status::OK();
}

Result<EntityMatcher> DeserializeModel(const std::string& bytes) {
  auto sections = ReadContainer(
      kModelFormat, bytes,
      {static_cast<uint32_t>(ModelSection::kMeta),
       static_cast<uint32_t>(ModelSection::kGenerator),
       static_cast<uint32_t>(ModelSection::kPipeline)});
  AUTOEM_RETURN_IF_ERROR(sections.status());

  Reader meta((*sections)[0]);
  std::string producer;
  double best_valid_f1;
  AUTOEM_RETURN_IF_ERROR(meta.Str(&producer));
  AUTOEM_RETURN_IF_ERROR(meta.F64(&best_valid_f1));

  Reader gen_reader((*sections)[1]);
  std::string generator_name;
  AUTOEM_RETURN_IF_ERROR(gen_reader.Str(&generator_name));
  auto generator = CreateFeatureGenerator(generator_name);
  if (!generator.ok()) return generator.status();
  AUTOEM_RETURN_IF_ERROR((*generator)->LoadState(&gen_reader));

  Reader pipe_reader((*sections)[2]);
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
  std::string bytes;
  AUTOEM_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeModel(bytes);
}

}  // namespace io
}  // namespace autoem
