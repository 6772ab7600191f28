// Schema validator for BENCH_*.json artifacts, run by the CI bench job
// before uploading: a bench that silently writes a malformed or truncated
// artifact poisons the perf-trend history, so the file is gated on parsing
// and on carrying the BenchArtifact v1 schema. Serve benches additionally
// must label their loop mode (open vs closed) — the one config key trend
// tooling keys on to avoid comparing the two harness families.
//
// Usage: artifact_check FILE.json [FILE.json ...]
// Exit 0 when every file passes; prints one line per failure otherwise.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tests/json_check.h"

namespace {

bool HasKey(const std::vector<std::string>& keys, const char* key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

bool CheckFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::printf("FAIL %s: cannot open\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  // Artifacts end in one newline; the checker wants exactly one value.
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  if (!tracer::testutil::IsValidJson(text)) {
    std::printf("FAIL %s: not valid JSON\n", path.c_str());
    return false;
  }
  const std::vector<std::string> keys =
      tracer::testutil::JsonObjectKeys(text);
  for (const char* required :
       {"schema_version", "bench", "run_id", "unix_time", "config",
        "sections"}) {
    if (!HasKey(keys, required)) {
      std::printf("FAIL %s: missing top-level key \"%s\"\n", path.c_str(),
                  required);
      return false;
    }
  }
  // Serve benches must say which side of the open/closed-loop divide their
  // numbers came from. Cheap textual check: "config" is a flat object
  // emitted by obs::JsonObject, so the key appears verbatim.
  if (text.find("\"bench\":\"serve_") != std::string::npos &&
      text.find("\"loop_mode\":") == std::string::npos) {
    std::printf("FAIL %s: serve bench artifact lacks config.loop_mode\n",
                path.c_str());
    return false;
  }
  // The fidelity artifact must carry every <method>.<stage> section plus
  // the fields trend tooling plots (curve AUCs, monotonicity, attribution
  // mass quantiles, the two correlation gates) — a run that silently drops
  // a method or stage would otherwise upload as a hole in the history.
  if (text.find("\"bench\":\"interp_fidelity\"") != std::string::npos) {
    for (const char* method : {"native", "ig", "occlusion"}) {
      for (const char* stage :
           {"deletion", "insertion", "rank_corr", "randomization"}) {
        const std::string section =
            std::string("\"name\":\"") + method + "." + stage + "\"";
        if (text.find(section) == std::string::npos) {
          std::printf("FAIL %s: missing fidelity section %s.%s\n",
                      path.c_str(), method, stage);
          return false;
        }
      }
    }
    for (const char* field :
         {"\"auc_drop\":", "\"auc_gain\":", "\"monotone\":", "\"p25\":",
          "\"p50\":", "\"p75\":", "\"rank_correlation\":",
          "\"attr_correlation\":"}) {
      if (text.find(field) == std::string::npos) {
        std::printf("FAIL %s: fidelity artifact lacks field %s\n",
                    path.c_str(), field);
        return false;
      }
    }
  }
  // The GEMM artifact must carry the 16×16×26 rows (a dim-16 recurrent
  // step on a 16-row MIMIC-III batch) for both kernels and every variant:
  // they are the evidence the auto dispatch rule's constants rest on, so a
  // run that dropped them would leave the rule unmeasured.
  if (text.find("\"bench\":\"gemm\"") != std::string::npos) {
    for (const char* variant : {"nn", "tn", "nt"}) {
      for (const char* kernel : {"naive", "blocked"}) {
        const std::string name = std::string("BM_Gemm/") + variant + "_" +
                                 kernel + "/16/16/26/1/real_time";
        if (text.find("\"name\":\"" + name + "\"") == std::string::npos) {
          std::printf("FAIL %s: missing small-shape GEMM row %s\n",
                      path.c_str(), name.c_str());
          return false;
        }
      }
    }
  }
  // The scalability artifact must carry the multi-process elastic series
  // for both cohorts (W = 1, 2, 4 each) — it is Figure 14's only series and
  // the only perf trend that watches the src/dist runtime, so a run that
  // silently dropped a cohort or a world size would go unmeasured.
  if (text.find("\"bench\":\"fig14_scalability\"") != std::string::npos) {
    for (const char* cohort : {"aki", "mimic"}) {
      for (const char* workers : {"1", "2", "4"}) {
        const std::string name =
            std::string("multiprocess/") + cohort + "/workers:" + workers;
        if (text.find("\"name\":\"" + name + "\"") == std::string::npos) {
          std::printf("FAIL %s: missing multi-process series section %s\n",
                      path.c_str(), name.c_str());
          return false;
        }
      }
    }
    // The 128-dim profile row carries the GEMM-bound gate: it must be
    // present with its gemm_share — the number the perf trend watches to
    // catch training drifting off the GEMM kernels.
    const char* section = "\"name\":\"profile128\"";
    const size_t at = text.find(section);
    if (at == std::string::npos) {
      std::printf("FAIL %s: missing 128-dim profile section %s\n",
                  path.c_str(), section);
      return false;
    }
    // Sections are flat objects, so the row ends at the next '}'.
    const std::string row = text.substr(at, text.find('}', at) - at);
    if (row.find("\"gemm_share\":") == std::string::npos) {
      std::printf("FAIL %s: profile128 section lacks gemm_share\n",
                  path.c_str());
      return false;
    }
  }
  std::printf("OK   %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: artifact_check FILE.json [FILE.json ...]\n");
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    if (!CheckFile(argv[i])) all_ok = false;
  }
  return all_ok ? 0 : 1;
}
