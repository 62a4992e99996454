// Structure-aware harness over the serialization substrate and both
// container formats. The fuzz input is split into decisions (mode, ops,
// offsets, values) and payload bytes via fuzz::FuzzInput:
//
//   mode 0 — Reader op-stream: run an arbitrary sequence of bounds-checked
//            decoder ops over raw bytes; every op must return cleanly.
//   mode 1 — Writer/Reader round-trip: encode fuzz-chosen typed values and
//            require exact (bit-level for doubles) decoding.
//   mode 2 — AEMK surgery: build a *valid* search checkpoint, then apply
//            fuzz-chosen mutations (byte flips, little-endian integer
//            overwrites on length/CRC fields, truncation); the parse must
//            never crash, and with zero mutations it must succeed.
//   mode 3 — AEMM surgery: write a container of fuzz-chosen sections,
//            then mutate it section-by-section with the corpus helpers
//            (id swaps, payload swaps, length-field overflow) before
//            DeserializeModel sees it.
//   mode 4 — TF-IDF state surgery: serialize a real fitted TfIdfModel, then
//            mutate the bytes (or feed raw fuzz bytes) into LoadState; the
//            parse must reject inconsistent states (df == 0,
//            df > num_documents, duplicate tokens, fitted-with-no-docs)
//            without crashing, and with zero mutations it must succeed.
#include "fuzz/fuzzer_util.h"

#include <cmath>
#include <cstring>

#include "automl/checkpoint.h"
#include "fuzz/corpus.h"
#include "io/container.h"
#include "io/model_io.h"
#include "io/serialize.h"
#include "text/tfidf.h"

namespace {

using autoem::fuzz::FuzzInput;

void ReaderOpStream(FuzzInput* in) {
  size_t n_ops = in->Index(64) + 1;
  std::string ops;
  for (size_t i = 0; i < n_ops; ++i) ops.push_back(in->Byte());
  std::string payload = in->Rest();
  autoem::io::Reader r(payload);
  for (char op : ops) {
    autoem::Status st = autoem::Status::OK();
    switch (static_cast<uint8_t>(op) % 10) {
      case 0: {
        uint8_t v;
        st = r.U8(&v);
        break;
      }
      case 1: {
        uint32_t v;
        st = r.U32(&v);
        break;
      }
      case 2: {
        uint64_t v;
        st = r.U64(&v);
        break;
      }
      case 3: {
        int32_t v;
        st = r.I32(&v);
        break;
      }
      case 4: {
        int64_t v;
        st = r.I64(&v);
        break;
      }
      case 5: {
        double v;
        st = r.F64(&v);
        break;
      }
      case 6: {
        std::string v;
        st = r.Str(&v);
        break;
      }
      case 7: {
        std::vector<double> v;
        st = r.VecF64(&v);
        break;
      }
      case 8: {
        std::vector<size_t> v;
        st = r.VecIdx(&v);
        break;
      }
      case 9:
        st = r.Skip(static_cast<size_t>(op) + 1);
        break;
    }
    AUTOEM_FUZZ_ASSERT(r.remaining() <= payload.size());
    if (!st.ok()) break;  // clean failure; later ops would also fail
  }
}

void WriterRoundTrip(FuzzInput* in) {
  autoem::io::Writer w;
  std::vector<uint8_t> kinds;
  std::vector<uint64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  size_t n_vals = in->Index(24) + 1;
  for (size_t i = 0; i < n_vals; ++i) {
    uint8_t kind = in->Byte() % 3;
    kinds.push_back(kind);
    if (kind == 0) {
      ints.push_back(in->U64());
      w.U64(ints.back());
    } else if (kind == 1) {
      uint64_t bits = in->U64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      doubles.push_back(d);
      w.F64(d);
    } else {
      strings.push_back(in->Bytes(in->Index(32)));
      w.Str(strings.back());
    }
  }
  autoem::io::Reader r(w.data());
  size_t ii = 0, di = 0, si = 0;
  for (uint8_t kind : kinds) {
    if (kind == 0) {
      uint64_t v;
      AUTOEM_FUZZ_ASSERT(r.U64(&v).ok());
      AUTOEM_FUZZ_ASSERT(v == ints[ii++]);
    } else if (kind == 1) {
      double v;
      AUTOEM_FUZZ_ASSERT(r.F64(&v).ok());
      AUTOEM_FUZZ_ASSERT(
          std::memcmp(&v, &doubles[di++], sizeof(v)) == 0);
    } else {
      std::string v;
      AUTOEM_FUZZ_ASSERT(r.Str(&v).ok());
      AUTOEM_FUZZ_ASSERT(v == strings[si++]);
    }
  }
  AUTOEM_FUZZ_ASSERT(r.remaining() == 0);
}

void CheckpointSurgery(FuzzInput* in) {
  autoem::SearchCheckpoint state = autoem::fuzz::MakeRichSearchCheckpoint();
  state.seed = in->U64();
  state.elapsed_seconds = static_cast<double>(in->U32());
  std::string bytes = autoem::SerializeSearchCheckpoint(state);

  size_t n_mutations = in->Index(6);
  if (n_mutations == 0) {
    AUTOEM_FUZZ_ASSERT(autoem::DeserializeSearchCheckpoint(bytes).ok());
    return;
  }
  for (size_t i = 0; i < n_mutations && !bytes.empty(); ++i) {
    switch (in->Byte() % 4) {
      case 0:
        autoem::fuzz::FlipBytes(&bytes, in->Index(bytes.size()),
                                in->Index(8) + 1,
                                static_cast<uint8_t>(in->Byte() | 1));
        break;
      case 1:
        autoem::fuzz::OverwriteLe(&bytes, in->Index(bytes.size()),
                                  in->U64(), in->Bool() ? 8 : 4);
        break;
      case 2:
        bytes.resize(in->Index(bytes.size() + 1));
        break;
      case 3:
        bytes += in->Bytes(in->Index(16) + 1);
        break;
    }
  }
  // Damaged container: any Status is fine, crashing is not.
  auto parsed = autoem::DeserializeSearchCheckpoint(bytes);
  (void)parsed;
}

void ModelEnvelopeSurgery(FuzzInput* in) {
  // A CRC-correct container of fuzz-chosen sections.
  std::vector<std::string> payloads(in->Index(5));
  std::vector<autoem::io::Section> sections;
  for (std::string& payload : payloads) {
    uint32_t id = in->Byte() % 6;  // hits real ids (1..3) and strangers
    payload = in->Bytes(in->Index(48));
    sections.push_back({id, payload});
  }
  std::string bytes =
      autoem::io::WriteContainer(autoem::io::kModelFormat, sections);

  // Section-by-section surgery with the shared helpers.
  auto refs = autoem::io::ListSections(bytes);
  if (refs.ok() && refs->size() >= 2) {
    switch (in->Byte() % 3) {
      case 0: {
        size_t a = in->Index(refs->size());
        size_t b = in->Index(refs->size());
        (void)autoem::fuzz::SwapSectionIds(&bytes, a, b);
        break;
      }
      case 1: {
        size_t a = in->Index(refs->size());
        size_t b = in->Index(refs->size());
        (void)autoem::fuzz::SwapSectionPayloads(&bytes, a, b);
        break;
      }
      case 2:
        (void)autoem::fuzz::SetSectionLength(&bytes, in->Index(refs->size()),
                                             in->U64());
        break;
    }
  }
  auto parsed = autoem::io::DeserializeModel(bytes);
  (void)parsed;
}

void TfIdfStateSurgery(FuzzInput* in) {
  if (in->Bool()) {
    // Raw-bytes path: the remaining fuzz input straight into LoadState.
    std::string payload = in->Rest();
    autoem::io::Reader r(payload);
    autoem::TfIdfModel model;
    auto st = model.LoadState(&r);
    (void)st;
    return;
  }
  // Surgery path: a genuinely fitted model's bytes, then targeted damage.
  autoem::TfIdfModel model(in->Bool() ? autoem::TokenizerKind::kQGram3
                                      : autoem::TokenizerKind::kWhitespace);
  model.AddDocument("alpha beta gamma");
  model.AddDocument("beta delta");
  model.AddDocument("gamma");
  if (in->Bool()) model.Fit();
  autoem::io::Writer w;
  AUTOEM_FUZZ_ASSERT(model.SaveState(&w).ok());
  std::string bytes = w.data();

  size_t n_mutations = in->Index(5);
  if (n_mutations == 0) {
    autoem::io::Reader r(bytes);
    autoem::TfIdfModel loaded;
    AUTOEM_FUZZ_ASSERT(loaded.LoadState(&r).ok());
    return;
  }
  for (size_t i = 0; i < n_mutations && !bytes.empty(); ++i) {
    switch (in->Byte() % 4) {
      case 0:
        autoem::fuzz::FlipBytes(&bytes, in->Index(bytes.size()),
                                in->Index(8) + 1,
                                static_cast<uint8_t>(in->Byte() | 1));
        break;
      case 1:
        // Integer overwrites land on doc counts, vocab counts, and the df
        // fields — the exact fields the consistency checks guard.
        autoem::fuzz::OverwriteLe(&bytes, in->Index(bytes.size()),
                                  in->U64(), in->Bool() ? 8 : 4);
        break;
      case 2:
        bytes.resize(in->Index(bytes.size() + 1));
        break;
      case 3:
        bytes += in->Bytes(in->Index(16) + 1);
        break;
    }
  }
  autoem::io::Reader r(bytes);
  autoem::TfIdfModel loaded;
  auto st = loaded.LoadState(&r);
  (void)st;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  switch (in.Byte() % 5) {
    case 0:
      ReaderOpStream(&in);
      break;
    case 1:
      WriterRoundTrip(&in);
      break;
    case 2:
      CheckpointSurgery(&in);
      break;
    case 3:
      ModelEnvelopeSurgery(&in);
      break;
    case 4:
      TfIdfStateSurgery(&in);
      break;
  }
  return 0;
}
