// Fuzzes the JSON reader (src/obs/json.cc) and the three readers built on
// it: trace analysis (obs::AnalyzeTraceJson), bench artifacts
// (tools::ParseBenchJson), and the run report, which gets the same bytes
// as trajectory CSV, metrics file, and trace. Two properties are asserted:
// the trace analyzer never accepts a document the reader rejects, and the
// report's embedded payload always passes the reader — whatever the
// inputs, the page's own JSON.parse must succeed.
#include "fuzz/fuzzer_util.h"

#include <string_view>

#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/report.h"
#include "tools/bench_compare_lib.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace autoem;
  // The report warns about malformed metrics; keep the fuzz loop quiet.
  obs::SetMinLogLevel(obs::LogLevel::kError);
  std::string text(reinterpret_cast<const char*>(data), size);

  bool parsed = obs::ParseJson(text).ok();
  bool analyzed = obs::AnalyzeTraceJson(text).ok();
  AUTOEM_FUZZ_ASSERT(parsed || !analyzed);
  (void)tools::ParseBenchJson(text);

  obs::ReportInputs inputs;
  inputs.trajectory_csv = text;
  inputs.metrics_text = text;
  inputs.trace_json = text;
  std::string html = obs::BuildRunReportHtml(inputs);
  const std::string open = "<script id=\"payload\" type=\"application/json\">";
  size_t begin = html.find(open);
  AUTOEM_FUZZ_ASSERT(begin != std::string::npos);
  begin += open.size();
  size_t end = html.find("</script>", begin);
  AUTOEM_FUZZ_ASSERT(end != std::string::npos);
  AUTOEM_FUZZ_ASSERT(
      obs::ParseJson(std::string_view(html).substr(begin, end - begin)).ok());
  return 0;
}
