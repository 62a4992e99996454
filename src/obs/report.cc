#include "obs/report.h"

#include <vector>

#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/log.h"
#include "table/csv.h"

namespace autoem {
namespace obs {

namespace {

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// True when `text` is one JSON value of type `type`: the test for
/// embedding a file's text verbatim in the payload.
bool ParsesAs(const std::string& text, JsonValue::Type type) {
  auto value = ParseJson(text);
  return value.ok() && value->type == type;
}

/// Columns that are always strings, even when all digits (config hashes).
bool QuotedColumn(const std::string& name) {
  return name == "config_hash" || name == "failure" ||
         name == "failure_message";
}

/// trajectory.csv -> JSON array of row objects keyed by the header names.
/// Text the CSV reader rejects (an unterminated quote) embeds no trials.
std::string TrajectoryToJson(const std::string& csv) {
  auto rows = ParseCsvCells(csv);
  if (!rows.ok()) {
    AUTOEM_LOG(WARN) << "report: trajectory is not valid CSV: "
                     << rows.status().message();
    return "[]";
  }
  if (rows->empty()) return "[]";
  const std::vector<std::string>& header = (*rows)[0];
  std::string out = "[";
  bool first_row = true;
  for (size_t i = 1; i < rows->size(); ++i) {
    const std::vector<std::string>& fields = (*rows)[i];
    if (fields.size() == 1 && Trimmed(fields[0]).empty()) continue;
    if (!first_row) out += ",";
    first_row = false;
    out += "\n{";
    for (size_t c = 0; c < header.size() && c < fields.size(); ++c) {
      if (c > 0) out += ",";
      out += JsonQuote(header[c]);
      out += ":";
      if (!QuotedColumn(header[c]) &&
          ParsesAs(fields[c], JsonValue::Type::kNumber)) {
        out += fields[c];
      } else {
        out += JsonQuote(fields[c]);
      }
    }
    out += "}";
  }
  out += "\n]";
  return out;
}

/// Classifies the metrics file and emits the three payload fields. Formats:
///  * jsonl  — every nonempty line is a JSON object -> series + final;
///  * openmetrics — anything else -> raw text, parsed client-side.
/// Text is embedded verbatim only after ParseJson accepts it; a file that
/// looks like JSON but does not parse falls back to raw text with a WARN.
void AppendMetricsJson(const std::string& metrics_text, std::string* out) {
  std::string trimmed = Trimmed(metrics_text);
  if (trimmed.empty()) {
    *out += "\"metrics_series\":null,\"metrics_final\":null,"
            "\"metrics_raw\":null";
    return;
  }
  std::vector<std::string> lines;
  bool all_objects = true;
  for (const std::string& line : SplitLines(trimmed)) {
    std::string t = Trimmed(line);
    if (t.empty()) continue;
    lines.push_back(t);
    if (all_objects) all_objects = ParsesAs(t, JsonValue::Type::kObject);
  }
  if (all_objects) {
    // JSONL time series (a single snapshot line is a series of one).
    *out += "\"metrics_series\":[";
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i > 0) *out += ",";
      *out += "\n";
      *out += lines[i];
    }
    *out += "\n],\"metrics_final\":";
    *out += lines.back();
    *out += ",\"metrics_raw\":null";
  } else {
    if (trimmed.front() == '{') {
      AUTOEM_LOG(WARN) << "report: metrics file is not valid JSON; "
                          "embedding it as raw text";
    }
    *out += "\"metrics_series\":null,\"metrics_final\":null,"
            "\"metrics_raw\":";
    *out += JsonQuote(trimmed);
  }
}

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

/// `</` inside the inline JSON would terminate the <script> block early
/// (e.g. a failure message containing "</script>"); escape it the standard
/// way — JSON parsers treat `<\/` as `</`.
std::string ScriptSafe(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '<' && i + 1 < json.size() && json[i + 1] == '/') {
      out += "<\\/";
      ++i;
    } else {
      out += json[i];
    }
  }
  return out;
}

const char kReportTemplate[] = R"HTML(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__AUTOEM_TITLE__</title>
<style>
:root { color-scheme: light; }
body { font: 14px/1.45 system-ui, sans-serif; margin: 0; color: #1c2430;
       background: #f5f6f8; }
header { background: #20304c; color: #fff; padding: 18px 28px; }
header h1 { margin: 0 0 4px; font-size: 20px; }
header .sub { color: #aebcd4; font-size: 12px; }
main { max-width: 1100px; margin: 0 auto; padding: 20px 28px 60px; }
section { background: #fff; border: 1px solid #dde2ea; border-radius: 8px;
          padding: 16px 20px; margin: 18px 0; }
h2 { font-size: 15px; margin: 0 0 12px; color: #20304c; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: #f0f3f8; border-radius: 6px; padding: 10px 16px;
        min-width: 120px; }
.card .v { font-size: 20px; font-weight: 600; }
.card .k { font-size: 11px; color: #5a6778; text-transform: uppercase; }
canvas { width: 100%; height: 260px; display: block; }
table { border-collapse: collapse; width: 100%; font-size: 12.5px; }
th, td { text-align: right; padding: 4px 10px;
         border-bottom: 1px solid #e8ebf0; font-variant-numeric: tabular-nums; }
th { color: #5a6778; font-weight: 600; position: sticky; top: 0;
     background: #fff; }
td.mono, th.mono { font-family: ui-monospace, monospace; }
td.l, th.l { text-align: left; }
tr.failed td { color: #a32020; background: #fdf3f3; }
.tablewrap { max-height: 420px; overflow-y: auto; }
.empty { color: #8a93a0; font-style: italic; }
</style>
</head>
<body>
<header>
  <h1>__AUTOEM_TITLE__</h1>
  <div class="sub" id="subtitle"></div>
</header>
<main>
  <section><h2>Summary</h2><div class="cards" id="summary"></div></section>
  <section><h2>Where the time went</h2><div id="critwrap">
    <div class="empty" id="critstatus">critical path — hover a segment</div>
    <canvas id="critlane" height="0"></canvas>
    <div class="cards" id="critqueue" style="margin:10px 0"></div>
    <div class="tablewrap" id="blame"></div>
  </div></section>
  <section><h2>Tuning curve</h2><div id="tuningwrap"><canvas id="tuning" height="260"></canvas></div></section>
  <section><h2>Per-trial resources</h2><div id="reswrap"><canvas id="resources" height="260"></canvas></div></section>
  <section><h2>Thread pool</h2><div id="poolwrap"><canvas id="pool" height="260"></canvas></div></section>
  <section><h2>Failures &amp; quarantine</h2><div id="failures"></div></section>
  <section><h2>Cache</h2><div class="cards" id="cache"></div></section>
  <section><h2>CPU flamegraph</h2><div id="flamewrap">
    <div class="empty" id="flamestatus">hover a frame for details</div>
    <canvas id="flame" height="0"></canvas>
  </div></section>
  <section><h2>Top functions (CPU profile)</h2><div class="tablewrap" id="hotfuncs"></div></section>
  <section><h2>Trials</h2><div class="tablewrap" id="trials"></div></section>
</main>
<script id="payload" type="application/json">__AUTOEM_PAYLOAD__</script>
<script>
"use strict";
const P = JSON.parse(document.getElementById("payload").textContent);
const trials = P.trials || [];
const fmt = (v, d) => (v === null || v === undefined || v === "" || isNaN(v))
    ? "—" : Number(v).toFixed(d === undefined ? 3 : d);
const esc = s => String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;")
    .replace(/>/g, "&gt;");
// A raw table cell: "—" when the trajectory left it empty (unmeasured).
const cell = v => (v === null || v === undefined || v === "") ? "—" : esc(v);

// ---- metrics access (series / final / openmetrics fallback) -------------
function parseOpenMetrics(text) {
  const counters = {}, gauges = {};
  for (const line of text.split("\n")) {
    if (!line || line[0] === "#") continue;
    const sp = line.lastIndexOf(" ");
    if (sp <= 0) continue;
    const name = line.slice(0, sp), value = Number(line.slice(sp + 1));
    if (name.includes("{")) continue;
    if (name.endsWith("_total")) counters[name.slice(0, -6)] = value;
    else gauges[name] = value;
  }
  return { counters, gauges, histograms: {} };
}
let finalMetrics = P.metrics_final;
if (!finalMetrics && P.metrics_raw) finalMetrics = parseOpenMetrics(P.metrics_raw);
const counter = n => {
  if (!finalMetrics || !finalMetrics.counters) return null;
  const c = finalMetrics.counters;
  if (n in c) return c[n];
  const om = n.replace(/[^A-Za-z0-9_:]/g, "_");
  return om in c ? c[om] : null;
};

// ---- summary cards ------------------------------------------------------
const done = trials.filter(t => !t.failure || t.failure === "ok");
const failed = trials.filter(t => t.failure && t.failure !== "ok");
const bestValid = done.length ? Math.max(...done.map(t => +t.valid_f1)) : null;
const bestRow = done.find(t => +t.valid_f1 === bestValid);
const elapsed = trials.length ? Math.max(...trials.map(t => +t.elapsed_seconds || 0)) : 0;
const sampled = trials.filter(t => t.cpu_seconds !== undefined && +t.allocs >= 0 && t.cpu_seconds !== "");
const totCpu = sampled.reduce((a, t) => a + (+t.cpu_seconds || 0), 0);
function card(k, v) { return `<div class="card"><div class="v">${v}</div><div class="k">${k}</div></div>`; }
document.getElementById("summary").innerHTML =
  card("trials", trials.length) +
  card("completed", done.length) +
  card("failed", failed.length) +
  card("best valid F1", fmt(bestValid)) +
  card("test F1 @ best", bestRow ? fmt(bestRow.test_f1) : "—") +
  card("elapsed", fmt(elapsed, 1) + " s") +
  (sampled.length ? card("trial CPU", fmt(totCpu, 2) + " s") : "");
document.getElementById("subtitle").textContent =
  trials.length + " trials · generated by autoem_cli report";

// ---- canvas helpers -----------------------------------------------------
function setup(id) {
  const cv = document.getElementById(id);
  const w = cv.clientWidth || 1000, h = 260, dpr = window.devicePixelRatio || 1;
  cv.width = w * dpr; cv.height = h * dpr;
  const g = cv.getContext("2d");
  g.scale(dpr, dpr);
  return { g, w, h, l: 52, r: 12, t: 12, b: 26 };
}
function axes(c, x0, x1, y0, y1, yfmt) {
  const { g, w, h, l, r, t, b } = c;
  g.strokeStyle = "#d4dae2"; g.fillStyle = "#5a6778";
  g.font = "11px system-ui"; g.lineWidth = 1;
  for (let i = 0; i <= 4; i++) {
    const y = t + (h - t - b) * i / 4;
    g.beginPath(); g.moveTo(l, y); g.lineTo(w - r, y); g.stroke();
    const v = y1 - (y1 - y0) * i / 4;
    g.textAlign = "right"; g.fillText(yfmt(v), l - 6, y + 4);
  }
  g.textAlign = "center";
  for (let i = 0; i <= 4; i++) {
    const x = l + (w - l - r) * i / 4;
    g.fillText(fmt(x0 + (x1 - x0) * i / 4, 0), x, h - 8);
  }
  c.px = v => l + (w - l - r) * (v - x0) / ((x1 - x0) || 1);
  c.py = v => t + (h - t - b) * (1 - (v - y0) / ((y1 - y0) || 1));
}

// ---- where the time went (critical path + blame) ------------------------
(function () {
  const C = P.critical;
  const wrap = document.getElementById("critwrap");
  if (!C || !C.critical_path || !C.critical_path.length) {
    wrap.innerHTML = '<div class="empty">No trace — rerun with --trace-out ' +
      "to get critical-path and queue-delay attribution.</div>";
    return;
  }
  const ms = us => fmt(us / 1000, 1);
  // Critical-path lane: one strip spanning the run; each segment is the
  // span (or queue wait, hatched gray) that determined the wall clock then.
  const cv = document.getElementById("critlane");
  const W = cv.clientWidth || 1000, H = 46, dpr = window.devicePixelRatio || 1;
  cv.width = W * dpr; cv.height = H * dpr; cv.style.height = H + "px";
  const g = cv.getContext("2d");
  g.scale(dpr, dpr);
  const segs = C.critical_path;
  const t0 = segs[0].start_us, t1 = segs[segs.length - 1].end_us;
  const px = v => (v - t0) / ((t1 - t0) || 1) * W;
  const hue = s => {
    let h = 0;
    for (let i = 0; i < s.length; i++) h = (h * 31 + s.charCodeAt(i)) >>> 0;
    return h % 360;
  };
  for (const s of segs) {
    const x = px(s.start_us), w = Math.max(px(s.end_us) - x, 0.4);
    g.fillStyle = s.kind === "queue" ? "#b9c0cc"
                                     : `hsl(${hue(s.name)},55%,60%)`;
    g.fillRect(x, 10, w, 26);
    if (s.kind === "queue") {
      g.fillStyle = "#8a93a0";
      for (let hx = x + 2; hx < x + w - 1; hx += 5) g.fillRect(hx, 10, 1, 26);
    }
  }
  const status = document.getElementById("critstatus");
  const cover = C.wall_us ? (100 * C.critical_us / C.wall_us).toFixed(1) : "0";
  const idle = "critical path: " + ms(C.critical_us) + " ms over " +
    ms(C.wall_us) + " ms wall (" + cover + "%) — hover a segment";
  status.textContent = idle;
  cv.addEventListener("mousemove", ev => {
    const box = cv.getBoundingClientRect();
    const mu = (ev.clientX - box.left) / W * ((t1 - t0) || 1) + t0;
    const s = segs.find(s => mu >= s.start_us && mu < s.end_us);
    status.textContent = s
      ? `${s.name}${s.kind === "queue" ? " [queue wait]" : ""} — ` +
        `${ms(s.end_us - s.start_us)} ms on tid ${s.tid}`
      : idle;
  });
  const q = C.queue_delay_us;
  document.getElementById("critqueue").innerHTML = !q || !q.count ? "" :
    card("queued tasks", q.count.toLocaleString()) +
    card("queue delay total", ms(q.total) + " ms") +
    card("p50", ms(q.p50) + " ms") +
    card("p95", ms(q.p95) + " ms") +
    card("max", ms(q.max) + " ms");
  // Ranked blame table: self + wait + child == total for every row.
  let html = '<table><tr><th class="l">span</th><th>count</th>' +
    "<th>total ms</th><th>self ms</th><th>wait ms</th><th>child ms</th>" +
    "<th>queue ms</th></tr>";
  for (const r of C.blame.slice(0, 25)) html +=
    `<tr><td class="l mono">${esc(r.name)}</td><td>${r.count}</td>` +
    `<td>${ms(r.total_us)}</td><td>${ms(r.self_us)}</td>` +
    `<td>${ms(r.wait_us)}</td><td>${ms(r.child_us)}</td>` +
    `<td>${ms(r.queue_us)}</td></tr>`;
  document.getElementById("blame").innerHTML = html + "</table>" +
    `<p class="empty">wait = span-local time covered by its queued tasks; ` +
    `queue = delay suffered by instances of the span itself. ` +
    `${C.flow_count} flows` +
    (C.flows_unmatched ? `, ${C.flows_unmatched} unmatched` : "") + ".</p>";
})();

// ---- tuning curve -------------------------------------------------------
(function () {
  if (!trials.length) {
    document.getElementById("tuningwrap").innerHTML =
      '<div class="empty">' + (P.has_trajectory ? "Empty trajectory."
        : "Trajectory not recorded — pass --trajectory.") + "</div>";
    return;
  }
  const c = setup("tuning");
  const xs = trials.map(t => +t.trial);
  axes(c, Math.min(...xs), Math.max(...xs), 0, 1, v => fmt(v, 2));
  c.g.fillStyle = "#7f9bd1";
  for (const t of done) {
    c.g.beginPath();
    c.g.arc(c.px(+t.trial), c.py(+t.valid_f1), 2.5, 0, 7); c.g.fill();
  }
  c.g.fillStyle = "#c86a6a";
  for (const t of failed) {
    c.g.fillRect(c.px(+t.trial) - 2, c.py(0.01) - 2, 4, 4);
  }
  c.g.strokeStyle = "#20304c"; c.g.lineWidth = 2; c.g.beginPath();
  let first = true;
  for (const t of trials) {
    if (t.best_f1_so_far === undefined) continue;
    const x = c.px(+t.trial), y = c.py(+t.best_f1_so_far);
    first ? c.g.moveTo(x, y) : c.g.lineTo(x, y); first = false;
  }
  c.g.stroke();
})();

// ---- per-trial resources ------------------------------------------------
(function () {
  if (!sampled.length) {
    document.getElementById("reswrap").innerHTML =
      '<div class="empty">' + (P.has_trajectory
        ? "No resource samples — rerun with --resources."
        : "Trial resources not recorded — pass --trajectory.") + "</div>";
    return;
  }
  const c = setup("resources");
  const xs = sampled.map(t => +t.trial);
  const ys = sampled.map(t => +t.cpu_seconds || 0);
  const ymax = Math.max(...ys, 1e-9);
  axes(c, Math.min(...xs), Math.max(...xs), 0, ymax, v => fmt(v, 2) + "s");
  const bw = Math.max(2, (c.w - c.l - c.r) / (xs.length * 1.6));
  c.g.fillStyle = "#5e8f6e";
  sampled.forEach(t => {
    const x = c.px(+t.trial), y = c.py(+t.cpu_seconds || 0);
    c.g.fillRect(x - bw / 2, y, bw, c.h - c.b - y);
  });
})();

// ---- thread pool timeline ----------------------------------------------
(function () {
  const series = P.metrics_series;
  const pts = [];
  if (series) {
    for (const s of series) {
      if (!s.gauges) continue;
      const q = s.gauges["threadpool.queue_depth"];
      const busy = s.counters ? s.counters["threadpool.tasks_executed"] : undefined;
      if (q !== undefined || busy !== undefined) {
        pts.push({ ts: +s.ts_s || 0, q: +q || 0, tasks: +busy || 0 });
      }
    }
  }
  if (pts.length < 2) {
    document.getElementById("poolwrap").innerHTML =
      '<div class="empty">No thread-pool time series — rerun with ' +
      '--metrics-flush-interval.</div>';
    return;
  }
  const c = setup("pool");
  const qmax = Math.max(...pts.map(p => p.q), 1);
  axes(c, pts[0].ts, pts[pts.length - 1].ts, 0, qmax, v => fmt(v, 0));
  c.g.strokeStyle = "#20304c"; c.g.lineWidth = 1.5; c.g.beginPath();
  pts.forEach((p, i) => {
    const x = c.px(p.ts), y = c.py(p.q);
    i ? c.g.lineTo(x, y) : c.g.moveTo(x, y);
  });
  c.g.stroke();
  // task throughput (derivative of the cumulative counter), scaled to fit
  const rates = [];
  for (let i = 1; i < pts.length; i++) {
    const dt = pts[i].ts - pts[i - 1].ts;
    rates.push(dt > 0 ? (pts[i].tasks - pts[i - 1].tasks) / dt : 0);
  }
  const rmax = Math.max(...rates, 1);
  c.g.strokeStyle = "#5e8f6e"; c.g.beginPath();
  rates.forEach((r, i) => {
    const x = c.px(pts[i + 1].ts), y = c.py(r / rmax * qmax);
    i ? c.g.lineTo(x, y) : c.g.moveTo(x, y);
  });
  c.g.stroke();
  c.g.fillStyle = "#20304c"; c.g.fillText("queue depth", c.l + 8, c.t + 12);
  c.g.fillStyle = "#5e8f6e";
  c.g.fillText("tasks/s (scaled, peak " + fmt(rmax, 0) + ")", c.l + 8, c.t + 26);
})();

// ---- failures -----------------------------------------------------------
(function () {
  const el = document.getElementById("failures");
  if (!failed.length) {
    el.innerHTML = '<div class="empty">' + (P.has_trajectory
      ? "No failed trials."
      : "Trial outcomes not recorded — pass --trajectory.") + "</div>";
    return;
  }
  const by = {};
  for (const t of failed) by[t.failure] = (by[t.failure] || 0) + 1;
  let html = '<div class="cards">';
  for (const k of Object.keys(by)) html +=
    `<div class="card"><div class="v">${by[k]}</div><div class="k">${esc(k)}</div></div>`;
  el.innerHTML = html + "</div>";
})();

// ---- cache --------------------------------------------------------------
(function () {
  const hits = counter("features.token_cache_hits");
  const misses = counter("features.token_cache_misses");
  const el = document.getElementById("cache");
  if (hits === null && misses === null) {
    el.innerHTML = '<div class="empty">No cache counters in metrics.</div>';
    return;
  }
  const h = hits || 0, m = misses || 0, tot = h + m;
  el.innerHTML = card("token cache hits", h.toLocaleString()) +
    card("misses", m.toLocaleString()) +
    card("hit rate", tot ? (100 * h / tot).toFixed(1) + "%" : "—");
})();

// ---- CPU flamegraph + top functions -------------------------------------
(function () {
  const wrap = document.getElementById("flamewrap");
  const hot = document.getElementById("hotfuncs");
  if (!P.profile) {
    wrap.innerHTML =
      '<div class="empty">No CPU profile — rerun with --profile-out.</div>';
    hot.innerHTML =
      '<div class="empty">No CPU profile — rerun with --profile-out.</div>';
    return;
  }
  // Parse collapsed-stack lines ("a;b;c 42") into a merge trie plus
  // per-function self/total tallies.
  const root = { name: "all", value: 0, children: {} };
  const funcs = {};
  for (const raw of P.profile.split("\n")) {
    const line = raw.trim();
    if (!line) continue;
    const sp = line.lastIndexOf(" ");
    if (sp <= 0) continue;
    const count = Number(line.slice(sp + 1));
    if (!count) continue;
    const frames = line.slice(0, sp).split(";");
    root.value += count;
    let node = root;
    const onStack = new Set();
    for (let i = 0; i < frames.length; i++) {
      const f = frames[i];
      node = node.children[f] ||
             (node.children[f] = { name: f, value: 0, children: {} });
      node.value += count;
      const rec = funcs[f] || (funcs[f] = { self: 0, total: 0 });
      if (!onStack.has(f)) { rec.total += count; onStack.add(f); }
      if (i === frames.length - 1) rec.self += count;
    }
  }
  if (!root.value) {
    wrap.innerHTML = '<div class="empty">Profile contained no samples.</div>';
    hot.innerHTML = '<div class="empty">Profile contained no samples.</div>';
    return;
  }
  // Lay the trie out into rows of rects (x/w in sample units).
  const ROW = 17, rects = [];
  let maxDepth = 0;
  (function lay(node, depth, x) {
    const kids = Object.values(node.children)
        .sort((a, b) => b.value - a.value || (a.name < b.name ? -1 : 1));
    for (const k of kids) {
      rects.push({ x, w: k.value, d: depth, name: k.name });
      if (depth > maxDepth) maxDepth = depth;
      lay(k, depth + 1, x);
      x += k.value;
    }
  })(root, 0, 0);
  const cv = document.getElementById("flame");
  const W = cv.clientWidth || 1000, H = (maxDepth + 1) * ROW;
  const dpr = window.devicePixelRatio || 1;
  cv.width = W * dpr; cv.height = H * dpr;
  cv.style.height = H + "px";
  const g = cv.getContext("2d");
  g.scale(dpr, dpr);
  const hue = s => {
    let h = 0;
    for (let i = 0; i < s.length; i++) h = (h * 31 + s.charCodeAt(i)) >>> 0;
    return h % 50;
  };
  g.font = "11px ui-monospace, monospace";
  g.textBaseline = "middle";
  for (const r of rects) {
    const x = r.x / root.value * W, w = r.w / root.value * W;
    if (w < 0.3) continue;
    const y = r.d * ROW;
    g.fillStyle = `hsl(${10 + hue(r.name)},72%,${62 + (r.d % 3) * 4}%)`;
    g.fillRect(x + 0.5, y + 1, Math.max(w - 1, 0.5), ROW - 2);
    if (w > 30) {
      g.fillStyle = "#3a2410";
      g.save();
      g.beginPath(); g.rect(x + 3, y, w - 6, ROW); g.clip();
      g.fillText(r.name, x + 4, y + ROW / 2);
      g.restore();
    }
  }
  const status = document.getElementById("flamestatus");
  cv.addEventListener("mousemove", ev => {
    const box = cv.getBoundingClientRect();
    const mx = (ev.clientX - box.left) / W * root.value;
    const md = Math.floor((ev.clientY - box.top) / ROW);
    const r = rects.find(r => r.d === md && mx >= r.x && mx < r.x + r.w);
    status.textContent = r
      ? `${r.name} — ${r.w} samples (${(100 * r.w / root.value).toFixed(1)}%)`
      : "hover a frame for details";
  });
  // Top functions by self samples.
  const rows = Object.entries(funcs)
      .sort((a, b) => b[1].self - a[1].self || b[1].total - a[1].total)
      .slice(0, 30);
  let html = '<table><tr><th class="l">function</th><th>self</th>' +
             "<th>self %</th><th>total</th><th>total %</th></tr>";
  for (const [name, r] of rows) html +=
    `<tr><td class="l mono">${esc(name)}</td><td>${r.self}</td>` +
    `<td>${(100 * r.self / root.value).toFixed(1)}</td><td>${r.total}</td>` +
    `<td>${(100 * r.total / root.value).toFixed(1)}</td></tr>`;
  hot.innerHTML = html + "</table>" +
    `<p class="empty">${root.value} samples total.</p>`;
})();

// ---- per-trial table ----------------------------------------------------
(function () {
  const el = document.getElementById("trials");
  if (!trials.length) {
    el.innerHTML = '<div class="empty">' + (P.has_trajectory
      ? "Empty trajectory."
      : "Trials not recorded — pass --trajectory.") + "</div>";
    return;
  }
  let html = "<table><tr><th>trial</th><th>valid F1</th><th>test F1</th>" +
    "<th>fit s</th><th>CPU s</th><th>ΔRSS KB</th><th>allocs</th>" +
    '<th class="l">failure</th><th class="l mono">config hash</th></tr>';
  for (const t of trials) {
    const bad = t.failure && t.failure !== "ok";
    html += `<tr${bad ? ' class="failed"' : ""}><td>${t.trial}</td>` +
      `<td>${fmt(t.valid_f1)}</td><td>${fmt(t.test_f1)}</td>` +
      `<td>${fmt(t.fit_seconds)}</td><td>${fmt(t.cpu_seconds)}</td>` +
      `<td>${cell(t.peak_rss_delta_kb)}</td><td>${cell(t.allocs)}</td>` +
      `<td class="l">${esc(t.failure ?? "")}</td>` +
      `<td class="l mono">${esc(t.config_hash ?? "")}</td></tr>`;
  }
  el.innerHTML = html + "</table>";
})();
</script>
</body>
</html>
)HTML";

}  // namespace

std::string BuildRunReportHtml(const ReportInputs& inputs) {
  std::string payload = "{\"trials\":";
  payload += TrajectoryToJson(inputs.trajectory_csv);
  payload += ",\"has_trajectory\":";
  payload += inputs.trajectory_csv.empty() ? "false" : "true";
  payload += ",";
  AppendMetricsJson(inputs.metrics_text, &payload);
  // Critical-path / blame analysis (obs v4): per-span counts and totals
  // for the whole trace. null when there is no trace or it has no spans.
  payload += ",\"critical\":";
  if (inputs.trace_json.empty()) {
    payload += "null";
  } else {
    auto analysis = AnalyzeTraceJson(inputs.trace_json);
    payload += analysis.ok() ? AnalysisJson(*analysis) : "null";
  }
  payload += ",\"profile\":";
  payload += inputs.profile_folded.empty() ? "null"
                                           : JsonQuote(inputs.profile_folded);
  payload += "}";
  payload = ScriptSafe(payload);

  std::string title =
      inputs.title.empty() ? "AutoEM run report" : inputs.title;
  title = HtmlEscape(title);

  std::string html = kReportTemplate;
  const std::string title_marker = "__AUTOEM_TITLE__";
  const std::string payload_marker = "__AUTOEM_PAYLOAD__";
  size_t pos = 0;
  while ((pos = html.find(title_marker, pos)) != std::string::npos) {
    html.replace(pos, title_marker.size(), title);
    pos += title.size();
  }
  pos = html.find(payload_marker);
  if (pos != std::string::npos) {
    html.replace(pos, payload_marker.size(), payload);
  }
  return html;
}

}  // namespace obs
}  // namespace autoem
