#include "fuzz/corpus.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "active/active_checkpoint.h"
#include "automl/config_io.h"
#include "automl/search_space.h"
#include "common/logging.h"
#include "datagen/benchmark_gen.h"
#include "em/matcher.h"
#include "io/model_io.h"
#include "io/serialize.h"
#include "text/tfidf.h"

namespace autoem {
namespace fuzz {

std::vector<Seed> CsvSeeds() {
  std::vector<Seed> seeds;
  seeds.push_back({"plain", "id,name,price\n1,apple,1.50\n2,banana,0.25\n"});
  seeds.push_back(
      {"quoted",
       "id,description\n1,\"has, comma\"\n2,\"embedded \"\"quote\"\"\"\n"
       "3,\"multi\nline\ncell\"\n"});
  seeds.push_back({"crlf", "a,b\r\n1,2\r\n3,4\r\n"});
  seeds.push_back({"bare_cr", "a,b\none\rtwo,3\n"});  // CR inside a cell
  seeds.push_back({"no_trailing_newline", "x,y\n1,2"});
  seeds.push_back({"empty_cells", "a,b,c\n,,\n1,,3\n"});
  seeds.push_back({"header_only", "col1,col2,col3\n"});
  seeds.push_back(
      {"typed", "b,n,s,m\ntrue,42,word,\nFalse,-1.5e3,two words,nan\n"});
  seeds.push_back({"ragged", "a,b\n1,2,3\n"});          // arity error path
  seeds.push_back({"unterminated", "a,b\n\"oops,2\n"});  // quote error path
  seeds.push_back(
      {"nul_bytes", std::string("a,b\nx\0y,2\n1\0junk,3\n", 20)});
  seeds.push_back({"wide_header",
                   "c0,c1,c2,c3,c4,c5,c6,c7,c8,c9\n"
                   "0,1,2,3,4,5,6,7,8,9\n"});
  return seeds;
}

std::vector<Seed> PairsSeeds() {
  // Two row-count bytes (left, right), then the pairs CSV.
  auto seed = [](const char* name, uint8_t left, uint8_t right,
                 const std::string& csv) {
    return Seed{name, std::string{char(left), char(right)} + csv};
  };
  const std::string header = "ltable_id,rtable_id,label\n";
  return {
      seed("valid", 3, 2, header + "0,1,1\n2,0,0\n1,1,-1\n"),
      seed("no_label_column", 2, 2, "ltable_id,rtable_id\n0,0\n1,1\n"),
      seed("empty_label", 2, 2, header + "0,0,\n1,1,1\n"),
      seed("quoted_reordered", 3, 3,
           "label,rtable_id,ltable_id,extra\n\"1\",\"0\",\"2\",x\n"),
      seed("huge_id", 3, 2, header + "1e300,0,1\n"),
      seed("negative_zero", 1, 1, header + "-0,-0,-0\n"),
      seed("fractional_id", 3, 2, header + "2.5,0,0\n"),
      seed("nan_id", 3, 2, header + "nan,0,1\n"),
      seed("id_at_row_count", 3, 2, header + "0,1,1\n3,0,1\n"),
      seed("bad_label", 3, 2, header + "0,0,2\n1,1,0.5\n"),
      seed("empty_tables", 0, 0, header + "0,0,1\n"),
  };
}

std::vector<Seed> ConfigSeeds() {
  std::vector<Seed> seeds;
  // Text form, through the real serializer so dialect drift is impossible.
  Configuration config;
  config["classifier:__choice__"] = ParamValue(std::string("random_forest"));
  config["classifier:random_forest:n_estimators"] = ParamValue(int64_t{100});
  config["classifier:random_forest:max_features"] = ParamValue(0.5);
  config["balancing:weighting"] = ParamValue(true);
  config["quote:'embedded'"] = ParamValue(std::string("it's quoted"));
  seeds.push_back({"full_text", SerializeConfiguration(config)});
  seeds.push_back({"comments",
                   "# a comment line\n\nkey = 'value'\nn = 3\nf = -2.75\n"
                   "flag = false\n"});
  seeds.push_back({"bad_line", "key_without_equals\n"});
  seeds.push_back({"weird_numbers",
                   "a = 1e308\nb = -0.0\nc = 9223372036854775807\n"
                   "d = 0.30000000000000004\n"});
  // Binary codec stream of the same configuration.
  io::Writer w;
  WriteConfigurationBinary(&w, config);
  seeds.push_back({"full_binary", w.data()});
  io::Writer empty;
  WriteConfigurationBinary(&empty, Configuration{});
  seeds.push_back({"empty_binary", empty.data()});
  return seeds;
}

std::vector<Seed> SerializeSeeds() {
  std::vector<Seed> seeds;
  io::Writer w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.F64(3.141592653589793);
  w.Str("length-prefixed string");
  w.VecF64({1.5, -2.5, 0.0});
  w.VecIdx({0, 7, 123456789});
  seeds.push_back({"primitives", w.data()});

  io::Writer absurd;
  absurd.U64(0xFFFFFFFFFFFFFFFFull);  // declared length with no payload
  seeds.push_back({"absurd_length", absurd.data()});

  io::Writer nested;
  nested.Str(std::string("bin\0ary", 7));
  nested.VecF64({});
  nested.U64(3);  // truncated vector: 3 declared, 1 present
  nested.F64(1.0);
  seeds.push_back({"truncated_vector", nested.data()});

  // TF-IDF state seeds for harness mode 4. Raw-path seeds start with the
  // mode byte (4 % 5 == 4) and an odd decision byte (Bool → raw), so the
  // rest of the seed goes straight into TfIdfModel::LoadState. One valid
  // state plus one seed per consistency rejection.
  auto tfidf_raw = [](const std::string& state) {
    return std::string("\x04\x01", 2) + state;
  };
  {
    TfIdfModel model;
    model.AddDocument("alpha beta gamma");
    model.AddDocument("beta delta");
    model.Fit();
    io::Writer valid;
    AUTOEM_CHECK(model.SaveState(&valid).ok());
    seeds.push_back({"tfidf_valid", tfidf_raw(valid.data())});
  }
  {
    io::Writer zero_df;  // df == 0: token claimed but never observed
    zero_df.U32(0);      // whitespace tokenizer
    zero_df.U64(2);      // num_documents
    zero_df.U8(1);       // fitted
    zero_df.U64(1);      // vocab size
    zero_df.Str("alpha");
    zero_df.U64(0);
    seeds.push_back({"tfidf_zero_df", tfidf_raw(zero_df.data())});
  }
  {
    io::Writer big_df;  // df > num_documents
    big_df.U32(0);
    big_df.U64(2);
    big_df.U8(1);
    big_df.U64(1);
    big_df.Str("alpha");
    big_df.U64(5);
    seeds.push_back({"tfidf_df_overflow", tfidf_raw(big_df.data())});
  }
  {
    io::Writer dup;  // duplicate vocabulary token
    dup.U32(0);
    dup.U64(3);
    dup.U8(1);
    dup.U64(2);
    dup.Str("alpha");
    dup.U64(1);
    dup.Str("alpha");
    dup.U64(2);
    seeds.push_back({"tfidf_dup_token", tfidf_raw(dup.data())});
  }
  {
    io::Writer no_docs;  // fitted with zero documents
    no_docs.U32(0);
    no_docs.U64(0);
    no_docs.U8(1);
    no_docs.U64(0);
    seeds.push_back({"tfidf_fitted_no_docs", tfidf_raw(no_docs.data())});
  }
  // Surgery-path seed: mode 4, even decision byte, whitespace tokenizer,
  // Fit, zero mutations — exercises the must-succeed round-trip branch.
  seeds.push_back(
      {"tfidf_surgery", std::string("\x04\x00\x00\x01\x00\x00\x00\x00", 8)});
  return seeds;
}

SearchCheckpoint MakeRichSearchCheckpoint() {
  SearchCheckpoint state;
  state.seed = 42;
  state.rng_state = "13 17 19 23 29";
  state.interleave_random = true;
  state.elapsed_seconds = 12.75;
  for (int trial = 0; trial < 2; ++trial) {
    EvalRecord record;
    record.config = DefaultEmConfiguration(ModelSpace::kRandomForestOnly);
    record.config["classifier:random_forest:n_estimators"] =
        ParamValue(int64_t{10 * (trial + 1)});
    record.valid_f1 = 0.5 + 0.1 * trial;
    record.test_f1 = 0.4 + 0.1 * trial;
    record.fit_seconds = 0.25;
    record.trial = trial;
    record.elapsed_seconds = 1.5 * (trial + 1);
    record.failure = trial == 1 ? TrialFailure::kTimeout : TrialFailure::kNone;
    record.failure_message = trial == 1 ? "deadline exceeded" : "";
    state.history.push_back(std::move(record));
  }
  state.failed_hashes = {0x1111111111111111ull, 0xFEDCBA9876543210ull};
  return state;
}

std::vector<Seed> CheckpointSeeds() {
  std::vector<Seed> seeds;
  seeds.push_back(
      {"search", SerializeSearchCheckpoint(MakeRichSearchCheckpoint())});

  // Hand-assembled v1 container: readers accept only the current version,
  // so this must be rejected.
  io::Writer payload;
  payload.U64(7);          // seed
  payload.Str("13 17 19");  // rng_state
  payload.U8(0);           // interleave_random
  payload.F64(2.5);        // elapsed_seconds
  payload.U64(0);          // no history
  payload.U64(1);          // one quarantined hash
  payload.U64(0xABCDEF0123456789ull);
  io::Writer v1;
  for (char c : kCheckpointMagic) v1.U8(static_cast<uint8_t>(c));
  v1.U32(1);  // version 1
  v1.U8(kSearchCheckpointKind);
  v1.U64(payload.size());
  v1.U32(io::Crc32(payload.data()));
  v1.Raw(payload.data());
  seeds.push_back({"search_v1", v1.data()});

  ActiveCheckpoint active;
  active.seed = 5;
  active.rng_state = "rng stream state";
  active.model_seed = 777;
  active.iteration = 3;
  active.alpha = 0.21;
  active.human_used = 80;
  active.machine_added = 120;
  active.machine_correct = 117;
  active.labeled = {{10, 1, false}, {4, 0, true}};
  active.unlabeled = {7, 2, 9};
  ActiveIterationStats stats;
  stats.iteration = 3;
  stats.human_labels = 80;
  stats.machine_labels = 120;
  stats.iteration_model_test_f1 = 0.66;
  active.stats = {stats};
  seeds.push_back({"active", SerializeActiveCheckpoint(active)});

  std::string truncated = seeds[0].bytes.substr(0, seeds[0].bytes.size() / 2);
  seeds.push_back({"search_truncated", truncated});
  return seeds;
}

namespace {

void AppendSection(uint32_t id, const std::string& payload, io::Writer* out,
                   uint32_t* count) {
  out->U32(id);
  out->U64(payload.size());
  out->U32(io::Crc32(payload));
  out->Raw(payload);
  ++*count;
}

std::string BuildEnvelope(const std::vector<std::pair<uint32_t, std::string>>&
                              sections) {
  io::Writer body;
  uint32_t count = 0;
  for (const auto& [id, payload] : sections) {
    AppendSection(id, payload, &body, &count);
  }
  io::Writer file;
  for (char c : io::kModelMagic) file.U8(static_cast<uint8_t>(c));
  file.U32(io::kModelFormatVersion);
  file.U32(count);
  return file.data() + body.data();
}

}  // namespace

std::vector<Seed> ModelEnvelopeSeeds() {
  std::vector<Seed> seeds;
  // A valid meta section; generator/pipeline payloads are synthetic, so the
  // deep parse rejects them after the envelope passes — the seed still walks
  // the whole section table with correct CRCs.
  io::Writer meta;
  meta.Str("autoem");
  meta.F64(0.875);
  io::Writer generator;
  generator.Str("automl_em");  // real registry name; plan state missing
  seeds.push_back(
      {"three_sections",
       BuildEnvelope({{1, meta.data()},
                      {2, generator.data()},
                      {3, std::string("synthetic pipeline payload")}})});
  seeds.push_back({"empty_sections", BuildEnvelope({})});
  seeds.push_back({"unknown_section_id",
                   BuildEnvelope({{1, meta.data()}, {99, "junk"}})});
  seeds.push_back({"meta_only", BuildEnvelope({{1, meta.data()}})});
  return seeds;
}

Result<std::vector<SectionRef>> ListModelSections(const std::string& bytes) {
  io::Reader r(bytes);
  AUTOEM_RETURN_IF_ERROR(r.Skip(sizeof(io::kModelMagic)));
  uint32_t version;
  AUTOEM_RETURN_IF_ERROR(r.U32(&version));
  uint32_t count;
  AUTOEM_RETURN_IF_ERROR(r.U32(&count));
  std::vector<SectionRef> sections;
  for (uint32_t i = 0; i < count; ++i) {
    SectionRef ref;
    ref.header_pos = r.pos();
    AUTOEM_RETURN_IF_ERROR(r.U32(&ref.id));
    ref.size_pos = r.pos();
    AUTOEM_RETURN_IF_ERROR(r.U64(&ref.size));
    ref.crc_pos = r.pos();
    uint32_t crc;
    AUTOEM_RETURN_IF_ERROR(r.U32(&crc));
    ref.payload_pos = r.pos();
    if (ref.size > r.remaining()) {
      return Status::InvalidArgument("section table: payload cut off");
    }
    AUTOEM_RETURN_IF_ERROR(r.Skip(static_cast<size_t>(ref.size)));
    sections.push_back(ref);
  }
  return sections;
}

void FlipBytes(std::string* bytes, size_t offset, size_t count,
               uint8_t mask) {
  for (size_t i = offset; i < offset + count && i < bytes->size(); ++i) {
    (*bytes)[i] = static_cast<char>((*bytes)[i] ^ mask);
  }
}

void OverwriteLe(std::string* bytes, size_t offset, uint64_t value,
                 size_t width) {
  for (size_t i = 0; i < width && offset + i < bytes->size(); ++i) {
    (*bytes)[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

Status SwapSectionPayloads(std::string* bytes, size_t a, size_t b) {
  auto sections = ListModelSections(*bytes);
  AUTOEM_RETURN_IF_ERROR(sections.status());
  if (a >= sections->size() || b >= sections->size()) {
    return Status::InvalidArgument("section index out of range");
  }
  const SectionRef& sa = (*sections)[a];
  const SectionRef& sb = (*sections)[b];
  std::string pa = bytes->substr(sa.payload_pos,
                                 static_cast<size_t>(sa.size));
  std::string pb = bytes->substr(sb.payload_pos,
                                 static_cast<size_t>(sb.size));
  // Rebuild rather than replace in place: the payloads may differ in size,
  // which would shift every later offset.
  std::string out;
  size_t prev_end = 0;
  for (size_t i = 0; i < sections->size(); ++i) {
    const SectionRef& ref = (*sections)[i];
    out.append(*bytes, prev_end, ref.payload_pos - prev_end);
    if (i == a) {
      out += pb;
    } else if (i == b) {
      out += pa;
    } else {
      out.append(*bytes, ref.payload_pos, static_cast<size_t>(ref.size));
    }
    prev_end = ref.payload_pos + static_cast<size_t>(ref.size);
  }
  out.append(*bytes, prev_end, bytes->size() - prev_end);
  *bytes = std::move(out);
  return Status::OK();
}

Status SwapSectionIds(std::string* bytes, size_t a, size_t b) {
  auto sections = ListModelSections(*bytes);
  AUTOEM_RETURN_IF_ERROR(sections.status());
  if (a >= sections->size() || b >= sections->size()) {
    return Status::InvalidArgument("section index out of range");
  }
  uint32_t id_a = (*sections)[a].id;
  uint32_t id_b = (*sections)[b].id;
  OverwriteLe(bytes, (*sections)[a].header_pos, id_b, 4);
  OverwriteLe(bytes, (*sections)[b].header_pos, id_a, 4);
  return Status::OK();
}

Status SetSectionLength(std::string* bytes, size_t idx, uint64_t value) {
  auto sections = ListModelSections(*bytes);
  AUTOEM_RETURN_IF_ERROR(sections.status());
  if (idx >= sections->size()) {
    return Status::InvalidArgument("section index out of range");
  }
  OverwriteLe(bytes, (*sections)[idx].size_pos, value, 8);
  return Status::OK();
}

Status SetSectionPayload(std::string* bytes, size_t idx,
                         const std::string& payload) {
  auto sections = ListModelSections(*bytes);
  AUTOEM_RETURN_IF_ERROR(sections.status());
  if (idx >= sections->size()) {
    return Status::InvalidArgument("section index out of range");
  }
  const SectionRef& s = (*sections)[idx];
  if (s.size > bytes->size() - s.payload_pos) {
    return Status::InvalidArgument("section payload cut off");
  }
  bytes->replace(s.payload_pos, static_cast<size_t>(s.size), payload);
  OverwriteLe(bytes, s.size_pos, payload.size(), 8);
  OverwriteLe(bytes, s.crc_pos, io::Crc32(payload), 4);
  return Status::OK();
}

std::vector<Seed> JsonSeeds() {
  std::vector<Seed> seeds;
  seeds.push_back(
      {"trace_object",
       "{\"traceEvents\":[\n"
       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"main\"}},\n"
       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
       "\"args\":{\"name\":\"worker-0\"}},\n"
       "{\"name\":\"pool.task\",\"cat\":\"autoem\",\"ph\":\"s\",\"pid\":1,"
       "\"tid\":0,\"ts\":7217,\"id\":1},\n"
       "{\"name\":\"pool.task\",\"cat\":\"autoem\",\"ph\":\"s\",\"pid\":1,"
       "\"tid\":0,\"ts\":7221,\"id\":\"2\"},\n"
       "{\"name\":\"pool.task\",\"cat\":\"autoem\",\"ph\":\"f\",\"pid\":1,"
       "\"tid\":2,\"ts\":7303,\"id\":1,\"bp\":\"e\"},\n"
       "{\"name\":\"features.token_cache_build\",\"cat\":\"autoem\","
       "\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":7307,\"dur\":336,"
       "\"args\":{\"first\":0,\"count\":15}},\n"
       "{\"name\":\"pool.task\",\"cat\":\"autoem\",\"ph\":\"X\",\"pid\":1,"
       "\"tid\":2,\"ts\":7302,\"dur\":342,\"args\":{\"queue_us\":84}},\n"
       "{\"name\":\"pool.task\",\"cat\":\"autoem\",\"ph\":\"f\",\"pid\":1,"
       "\"tid\":2,\"ts\":7646,\"id\":\"2\",\"bp\":\"e\"},\n"
       "{\"name\":\"pool.task\",\"cat\":\"autoem\",\"ph\":\"X\",\"pid\":1,"
       "\"tid\":2,\"ts\":7645,\"dur\":260},\n"
       "{\"name\":\"automl.search\",\"cat\":\"autoem\",\"ph\":\"X\",\"pid\":1,"
       "\"tid\":0,\"ts\":7000,\"dur\":1200,"
       "\"args\":{\"checkpoint\":\"runs/caf\xc3\xa9\\u00e9.aemk\"}}\n"
       "],\"displayTimeUnit\":\"ms\"}\n"});
  seeds.push_back(
      {"trace_array",
       "[\n"
       "{\"name\":\"automl.trial\",\"cat\":\"autoem\",\"ph\":\"X\",\"pid\":1,"
       "\"tid\":1,\"ts\":10,\"dur\":250},\n"
       "{\"name\":\"rf.fit\",\"cat\":\"autoem\",\"ph\":\"X\",\"pid\":1,"
       "\"tid\":1,\"ts\":20,\"dur\":100.5}\n"
       "]\n"});
  seeds.push_back({"metrics_json",
                   "{\n"
                   "  \"counters\": {\n"
                   "    \"automl.trials\": 4,\n"
                   "    \"features.token_cache_hits\": 5648\n"
                   "  },\n"
                   "  \"gauges\": {\n"
                   "    \"automl.best_valid_f1\": 0.93333333333333335\n"
                   "  },\n"
                   "  \"histograms\": {\n"
                   "    \"automl.eval_ms\": {\"count\": 2, \"sum\": 41.5, "
                   "\"buckets\": [{\"le\": 1, \"count\": 0}, "
                   "{\"le\": \"inf\", \"count\": 2}]}\n"
                   "  }\n"
                   "}\n"});
  seeds.push_back(
      {"metrics_jsonl",
       "{\"ts_s\": 0.20000000000000001, \"counters\": {\"threadpool."
       "tasks_executed\": 12},\"gauges\": {\"threadpool.queue_depth\": 3},"
       "\"histograms\": {}}\n"
       "{\"ts_s\": 0.40000000000000002, \"counters\": {\"threadpool."
       "tasks_executed\": 84,\"obs.flush_final\": 1},\"gauges\": "
       "{\"threadpool.queue_depth\": 0},\"histograms\": {}}\n"});
  seeds.push_back(
      {"bench_baseline",
       "{\"meta\":{\"cpu_model\":\"Intel(R) Xeon(R) Processor @ 2.10GHz\","
       "\"git_sha\":\"unknown\",\"threads\":1},\"cases\":[\n"
       "{\"name\":\"BM_ScorePairsBatched/1\",\"params\":{},\"counters\":"
       "{\"bench_compare.runs\":3},\"seconds\":0.0068679359907474905},\n"
       "{\"name\":\"BM_Guard\",\"params\":{},\"counters\":"
       "{\"bench_compare.runs\":3},\"seconds\":4.0000000000000001e-08}\n"
       "]}\n"});
  // Inputs that broke the hand-written readers.
  seeds.push_back({"deep_nesting",
                   "{\"traceEvents\":[],\"ignored\":" +
                       std::string(100, '[') + std::string(100, ']') + "}"});
  const char* kSpan =
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"tid\":1,\"ts\":0,"
      "\"dur\":10},{\"name\":\"b\",\"ph\":\"X\",\"tid\":1,\"dur\":1,";
  seeds.push_back({"ts_1e300", std::string(kSpan) + "\"ts\":1e300}]}"});
  seeds.push_back({"tid_2pow32", std::string(kSpan) +
                                     "\"ts\":2,\"tid\":4294967296}]}"});
  seeds.push_back(
      {"ts_string_1e5e5", std::string(kSpan) + "\"ts\":\"1e5e5\"}]}"});
  seeds.push_back({"seconds_hex",
                   "{\"cases\":[{\"name\":\"a\",\"seconds\":0x1p-4}]}"});
  seeds.push_back({"seconds_neg_inf",
                   "{\"cases\":[{\"name\":\"a\",\"seconds\":-inf}]}"});
  seeds.push_back({"runs_1e300",
                   "{\"cases\":[{\"name\":\"a\",\"counters\":"
                   "{\"bench_compare.runs\":1e300},\"seconds\":0.5}]}"});
  return seeds;
}

namespace {

// kernel_fuzzer's input layout: big-endian u16 length of a, a, then b.
Seed KernelPair(std::string name, std::string_view a, std::string_view b) {
  std::string bytes;
  bytes.push_back(static_cast<char>(a.size() >> 8));
  bytes.push_back(static_cast<char>(a.size() & 0xFF));
  bytes.append(a);
  bytes.append(b);
  return {std::move(name), std::move(bytes)};
}

}  // namespace

std::vector<Seed> KernelSeeds() {
  std::vector<Seed> seeds;
  seeds.push_back(KernelPair("empty_pair", "", ""));
  seeds.push_back(KernelPair("empty_vs_word", "", "york"));
  seeds.push_back(KernelPair("token_in_phrase", "york", "new york city"));
  seeds.push_back(KernelPair("transposed", "martha", "marhta"));
  seeds.push_back(KernelPair("window_edge", "dixon", "dicksonx"));
  seeds.push_back(KernelPair("repeated_tokens", "a a a b c", "c b b a"));
  seeds.push_back(
      KernelPair("word_edge_64_65", std::string(64, 'x'),
                 std::string(32, 'x') + "y" + std::string(32, 'x')));
  seeds.push_back(KernelPair("word_edge_128_129", std::string(128, 'y'),
                             std::string(129, 'y')));
  seeds.push_back(KernelPair(
      "hostile_bytes", std::string("a\0b \t\xC3\xA9\xFF", 8),
      std::string("\xFF\xC3\xA9\v\f\r\n b\0a", 11)));
  seeds.push_back(KernelPair(
      "product_descriptions",
      "sony bravia 46 inch lcd hdtv kdl46v5100 1080p full hd 120hz motionflow "
      "bravia engine 2 4 hdmi inputs usb port for photos and music black "
      "high gloss finish with swivel stand",
      "sony kdl-46v5100 46in bravia v series 1080p lcd hdtv full hd "
      "resolution motionflow 120hz bravia engine 2 hdmi inputs x4 usb photo "
      "viewer piano black finish"));
  seeds.push_back(KernelPair("long_vs_short",
                             std::string(300, 'z') + " end", "z"));
  // Featurization leg: up to three cells per side, split at '|'.
  seeds.push_back(KernelPair("cells_shared_tokens",
                             "new york|york city new york|new",
                             "york|new york city|city new"));
  seeds.push_back(KernelPair("cells_same_token", "token|token token|",
                             "token|other token|token"));
  seeds.push_back(KernelPair(
      "cells_product_descriptions",
      "sony bravia 46 inch lcd hdtv kdl46v5100 1080p full hd 120hz|"
      "samsung 40 inch lcd hdtv ln40b530 1080p 60hz black|"
      "sony kdl-40v5100 40 inch bravia lcd 1080p",
      "sony kdl-46v5100 46in bravia v series 1080p lcd hdtv full hd|"
      "samsung ln40b530 40in lcd hdtv 1080p piano black|"
      "bravia engine 2 hdmi inputs x4 usb photo viewer"));
  return seeds;
}

namespace {

// tree_fuzzer's input layout: rows, cols, the flags byte (bit 0 entropy,
// bits 1-2 weight mode, bit 3 random thresholds, bit 4 tall),
// min_samples_leaf, min_samples_split, max_depth, max_features and
// min_impurity_decrease bytes, the tree seed, then per row a label byte, a
// weight byte and one palette byte per cell. `cell(r, c)` returns the
// cell's bytes.
template <typename CellFn>
Seed TreeCase(std::string name, uint8_t rows, uint8_t cols, uint8_t flags,
              uint8_t min_leaf, uint8_t max_features, CellFn cell) {
  std::string bytes;
  for (uint8_t b : {static_cast<uint8_t>(rows - 2),
                    static_cast<uint8_t>(cols - 1), flags,
                    static_cast<uint8_t>(min_leaf - 1), uint8_t{0},
                    uint8_t{0}, static_cast<uint8_t>(max_features - 1),
                    uint8_t{0}, uint8_t{7}}) {
    bytes.push_back(static_cast<char>(b));
  }
  for (uint8_t r = 0; r < rows; ++r) {
    // Labels follow the row's first cell with every fifth flipped; weight
    // bytes cycle so every mode sees zeros and repeats.
    const std::string first = cell(r, 0);
    bytes.push_back(static_cast<char>((first[0] + (r % 5 == 0)) & 1));
    bytes.push_back(static_cast<char>(r * 7 + 3));
    for (uint8_t c = 0; c < cols; ++c) bytes += cell(r, c);
  }
  return {std::move(name), std::move(bytes)};
}

// A raw cell: the 0x80 escape, then the double's bits big-endian.
std::string RawCell(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  std::string out(1, static_cast<char>(0x80));
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
  return out;
}

std::string PaletteCell(int index) {
  return std::string(1, static_cast<char>(index));
}

}  // namespace

std::vector<Seed> TreeSeeds() {
  std::vector<Seed> seeds;
  // Palette indices (tree_fuzzer.cc): 0 NaN, 1 -0, 2 +0, 3 -inf, 4 +inf,
  // 5/6 ±denorm_min, 7/8 ±DBL_MAX, 9.. small reals.
  seeds.push_back(TreeCase("signed_zero_below_inf", 24, 1, 0, 1, 8,
                           [](int r, int) {
                             return PaletteCell(r % 3 == 0 ? 4 : 1 + r % 2);
                           }));
  seeds.push_back(TreeCase("signed_zero_below_inf_fractional", 24, 1, 4, 1, 8,
                           [](int r, int) {
                             return PaletteCell(r % 3 == 0 ? 4 : 1 + r % 2);
                           }));
  // Tall: 2,048 zero-weight shadow rows lift column 0's D above 64m at the
  // root, so its 26 weighted rows sort keys past insertion sort's 16, and
  // the threshold's sign rests on the key's row half.
  seeds.push_back(TreeCase("tall_signed_zero_below_inf", 28, 1, 0x14, 1, 8,
                           [](int r, int) {
                             return PaletteCell(r % 3 == 0 ? 4 : 1 + r % 2);
                           }));
  seeds.push_back(TreeCase("nan_and_infinities", 40, 3, 0, 1, 8,
                           [](int r, int c) {
                             return PaletteCell((r * 3 + c * 5) % 5);
                           }));
  seeds.push_back(TreeCase("heavy_ties_bootstrap", 64, 4, 2, 1, 4,
                           [](int r, int c) {
                             return PaletteCell(9 + (r * (c + 2)) % 4);
                           }));
  seeds.push_back(TreeCase("class_weight_fractions", 64, 4, 5, 2, 8,
                           [](int r, int c) {
                             return PaletteCell((r * (c + 3) + c) % 16);
                           }));
  seeds.push_back(TreeCase("huge_whole_weights", 48, 3, 6, 1, 8,
                           [](int r, int c) {
                             return PaletteCell(9 + (r + c * r) % 7);
                           }));
  seeds.push_back(TreeCase("overflowing_midpoint", 32, 2, 0, 1, 8,
                           [](int r, int c) {
                             return PaletteCell(7 + (r + c) % 2);
                           }));
  seeds.push_back(TreeCase("raw_denormals", 30, 2, 2, 1, 8, [](int r, int c) {
    return RawCell(std::numeric_limits<double>::denorm_min() * (r % 6) *
                   (c + 1));
  }));
  seeds.push_back(TreeCase("zero_weights", 8, 1, 2, 1, 8, [](int, int) {
    return PaletteCell(9);
  }));
  seeds.push_back(TreeCase("random_thresholds", 40, 3, 8, 1, 6,
                           [](int r, int c) {
                             return PaletteCell((r * 5 + c) % 16);
                           }));
  // Fractional weights, whose sums depend on row order, and the derived
  // leg's rows reversed: their ranks come from the superset's in another
  // order than the rows'.
  seeds.push_back(TreeCase("reversed_class_weight_fractions", 64, 4, 0x24, 1,
                           8, [](int r, int c) {
                             return PaletteCell((r * (c + 3) + c) % 16);
                           }));
  return seeds;
}

namespace {

Status WriteSeedDir(const std::string& dir, const std::string& harness,
                    const std::vector<Seed>& seeds) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(dir) / harness, ec);
  if (ec) {
    return Status::IOError("cannot create " + dir + "/" + harness + ": " +
                           ec.message());
  }
  for (const Seed& seed : seeds) {
    fs::path path = fs::path(dir) / harness / seed.name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(seed.bytes.data(),
              static_cast<std::streamsize>(seed.bytes.size()));
    if (!out) return Status::IOError("write failed: " + path.string());
  }
  return Status::OK();
}

}  // namespace

Status WriteSeedCorpus(const std::string& dir, bool with_model) {
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "csv", CsvSeeds()));
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "pairs", PairsSeeds()));
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "config_io", ConfigSeeds()));
  AUTOEM_RETURN_IF_ERROR(
      WriteSeedDir(dir, "serialize_roundtrip", SerializeSeeds()));
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "checkpoint", CheckpointSeeds()));
  AUTOEM_RETURN_IF_ERROR(
      WriteSeedDir(dir, "model_io", ModelEnvelopeSeeds()));
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "json", JsonSeeds()));
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "kernel", KernelSeeds()));
  AUTOEM_RETURN_IF_ERROR(WriteSeedDir(dir, "tree", TreeSeeds()));
  if (with_model) {
    // The deep-parse seed: a real trained container, deterministic because
    // every seed below is pinned (same recipe as tests/model_io_test.cc).
    auto data = GenerateBenchmarkByName("Fodors-Zagats", /*seed=*/13,
                                        /*scale=*/0.1);
    AUTOEM_RETURN_IF_ERROR(data.status());
    EntityMatcher::Options options;
    options.automl.max_evaluations = 2;
    options.automl.seed = 17;
    options.automl.parallelism = Parallelism::Threads(1);
    auto matcher = EntityMatcher::Train(data->train, options);
    AUTOEM_RETURN_IF_ERROR(matcher.status());
    std::string bytes;
    AUTOEM_RETURN_IF_ERROR(io::SerializeModel(*matcher, &bytes));
    AUTOEM_RETURN_IF_ERROR(
        WriteSeedDir(dir, "model_io", {{"trained_tiny.aemm", bytes}}));
  }
  return Status::OK();
}

}  // namespace fuzz
}  // namespace autoem
