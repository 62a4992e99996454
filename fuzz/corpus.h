#ifndef AUTOEM_FUZZ_CORPUS_H_
#define AUTOEM_FUZZ_CORPUS_H_

// Seed-corpus builders and container-surgery helpers shared by the fuzz
// harnesses, the corpus generator tool (fuzz_corpus_gen), and the
// corruption-matrix unit tests in tests/model_io_test.cc and
// tests/checkpoint_test.cc. Everything here is deterministic: the same
// build writes byte-identical seeds, so the checked-in corpus under
// fuzz/corpus/ stays stable across regenerations.

#include <cstdint>
#include <string>
#include <vector>

#include "automl/checkpoint.h"
#include "common/status.h"

namespace autoem {
namespace fuzz {

/// One named corpus entry; `name` becomes the file name under
/// fuzz/corpus/<harness>/.
struct Seed {
  std::string name;
  std::string bytes;
};

/// Hostile-but-parseable CSV dialect coverage: quoting, CRLF, bare CR,
/// embedded NUL/newline/comma, unterminated quotes, ragged rows.
std::vector<Seed> CsvSeeds();

/// Pairs CSVs behind two row-count bytes (left, right), in pairs_fuzzer's
/// layout: valid pairs, a missing or empty label, quoted and reordered
/// columns, and the ids and labels PairsFromTable must reject (1e300, 2.5,
/// nan, an id equal to the row count, labels 2 and 0.5) next to `-0`,
/// which it accepts as 0.
std::vector<Seed> PairsSeeds();

/// `key = value` configuration texts covering every ParamValue type plus
/// malformed lines, and binary Configuration codec streams.
std::vector<Seed> ConfigSeeds();

/// Raw Writer streams (primitives, strings, vectors, absurd lengths) for
/// the serialize_roundtrip harness.
std::vector<Seed> SerializeSeeds();

/// Valid AEMK containers of both kinds, built through the real save
/// codecs, plus must-reject ones: a hand-assembled container in the v1
/// layout (the one container not written by io/container.h) and a
/// truncation.
std::vector<Seed> CheckpointSeeds();

/// Structurally valid AEMM containers whose sections carry synthetic
/// payloads (the deep parse rejects them cleanly); these exercise the
/// section-table reader without requiring a trained model.
std::vector<Seed> ModelEnvelopeSeeds();

/// JSON documents of every kind the repo writes and reads back — traces in
/// both Chrome layouts, metrics JSONL (and the multi-line metrics JSON older
/// builds wrote), a bench baseline — plus the hostile inputs that once broke the hand-written readers (deep nesting,
/// out-of-range and non-JSON numbers). Fixed strings, so the seeds do not
/// drift with the writers.
std::vector<Seed> JsonSeeds();

/// String pairs for the kernel differential harness, each encoded as a
/// big-endian u16 length of the first string, the first string, then the
/// second: empties, single tokens, transpositions, strings at the 64-bit
/// word edges, NUL/high/whitespace bytes, and a product-description pair.
/// The `cells_*` seeds feed the featurization leg, which splits each
/// string at '|' into up to three table cells: tokens shared across cells,
/// the same token on both sides, and product descriptions. Fixed strings,
/// so the seeds never drift.
std::vector<Seed> KernelSeeds();

/// Small training problems for the tree differential harness, in
/// tree_fuzzer's layout: a ±0 group below +inf (the threshold-sign
/// corner), NaN and infinities, heavy ties under bootstrap counts, class
/// weight fractions, whole weights too large to sum exactly, overflowing
/// midpoints, raw denormal cells, all-zero weights, and random thresholds.
std::vector<Seed> TreeSeeds();

/// A populated two-trial checkpoint whose second trial failed — the "rich"
/// fixture behind CheckpointSeeds and the corruption-matrix tests.
SearchCheckpoint MakeRichSearchCheckpoint();

// ---- container surgery ----------------------------------------------------
//
// The helpers below locate the fields of a well-formed container (models
// and checkpoints alike) with io::ListSections and corrupt them
// *surgically*: swap payloads while leaving the headers alone (CRC must
// catch it), swap ids while leaving payloads attached to their CRCs
// (structure stays valid, deep parse must reject), or overwrite a length
// field with an overflow value. The corruption-matrix tests and the
// structure-aware fuzzer share them.

/// XORs `count` bytes starting at `offset` with `mask` (clamped to the
/// buffer). The multi-byte generalization of the single-byte flip tests.
void FlipBytes(std::string* bytes, size_t offset, size_t count,
               uint8_t mask = 0x5A);

/// Writes `value` as little-endian over `width` bytes at `offset`.
void OverwriteLe(std::string* bytes, size_t offset, uint64_t value,
                 size_t width);

/// Swaps the payload bytes of sections `a` and `b`, leaving every header
/// field (ids, sizes, CRCs) in place. With different payloads the CRC check
/// must reject the result.
Status SwapSectionPayloads(std::string* bytes, size_t a, size_t b);

/// Swaps only the id fields of sections `a` and `b`; payloads stay attached
/// to their sizes and CRCs, so the container remains structurally valid and
/// the damage is only visible to the section consumers.
Status SwapSectionIds(std::string* bytes, size_t a, size_t b);

/// Overwrites section `idx`'s u64 payload-size field with `value`
/// (e.g. UINT64_MAX or remaining+1 for overflow probing).
Status SetSectionLength(std::string* bytes, size_t idx, uint64_t value);

/// Replaces section `idx`'s payload with `payload` and rewrites its size
/// and CRC to match, so the container stays valid and only the section's
/// consumer sees the change.
Status SetSectionPayload(std::string* bytes, size_t idx,
                         const std::string& payload);

/// Writes every seed list into `dir`/<harness>/<name>. Creates
/// directories as needed. `with_model` additionally trains a tiny matcher
/// (deterministic seed) and writes the serialized container into
/// model_io/ — slow (~seconds), so the cheap synthetic seeds are separate.
Status WriteSeedCorpus(const std::string& dir, bool with_model);

}  // namespace fuzz
}  // namespace autoem

#endif  // AUTOEM_FUZZ_CORPUS_H_
