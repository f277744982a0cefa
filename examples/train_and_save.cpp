// Train once, persist the detectors, reload them in a fresh analyzer, and
// dump an Esprima-style JSON AST — the offline/production workflow.
//
//   $ ./train_and_save /tmp/jstraced.model
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "ast/ast_json.h"
#include "parser/parser.h"
#include "transform/transform.h"

int main(int argc, char** argv) {
  using namespace jst;

  const std::string model_path =
      argc > 1 ? argv[1] : "/tmp/jstraced.model";

  analysis::PipelineOptions options;
  options.training_regular_count = 80;
  options.per_technique_count = 16;

  // 1. Train and save.
  {
    analysis::TransformationAnalyzer analyzer(options);
    std::printf("training...\n");
    analyzer.train();
    std::ofstream out(model_path);
    analyzer.save(out);
    std::printf("model written to %s\n", model_path.c_str());
  }

  // 2. Reload into a fresh analyzer (no retraining).
  analysis::TransformationAnalyzer restored(options);
  {
    std::ifstream in(model_path);
    if (!in) {
      std::fprintf(stderr, "cannot reopen %s\n", model_path.c_str());
      return 1;
    }
    restored.load(in);
    std::printf("model reloaded; trained=%s\n",
                restored.trained() ? "true" : "false");
  }

  // 3. Use it.
  const std::string script = R"JS(
function fetchScores(user) {
  return api.get("/scores/" + user.id).then(function (rows) {
    return rows.filter(function (row) { return row.valid; });
  });
}
)JS";
  Rng rng(11);
  const std::string packed = transform::pack(script, rng);
  const analysis::ScriptReport report =
      analysis::AnalyzerService(restored)
          .analyze(analysis::AnalyzeRequest::for_source(packed))
          .outcome.report;
  std::printf("packed sample => transformed=%s (p_min=%.2f p_obf=%.2f)\n",
              report.level1.transformed() ? "yes" : "no",
              report.level1.p_minified, report.level1.p_obfuscated);

  // 4. Dump the AST of the original script as ESTree JSON (first 400
  //    chars for the demo).
  const ParseResult parsed = parse_program(script);
  const std::string json = ast_to_json(parsed.ast.root(), /*pretty=*/true);
  std::printf("\nESTree JSON (truncated):\n%.*s...\n", 400, json.c_str());
  return 0;
}
