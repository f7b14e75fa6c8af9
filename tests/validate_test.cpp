// The single validating boundary (analysis::validate): every malformed
// spec in the table is rejected by validate(), by run() in every RunMode,
// and by the Experiment constructor, with std::invalid_argument naming the
// offending field.  The boundary values next to each hole stay accepted.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"

namespace wlsync::analysis {
namespace {

RunSpec small_spec() {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.rounds = 4;
  spec.seed = 3;
  return spec;
}

struct Hole {
  const char* name;
  std::function<void(RunSpec&)> apply;
  const char* field;  ///< must appear in the exception message
};

const std::vector<Hole>& holes() {
  static const std::vector<Hole> table = {
      {"rounds = 0", [](RunSpec& s) { s.rounds = 0; }, "RunSpec.rounds"},
      {"rounds < 0", [](RunSpec& s) { s.rounds = -3; }, "RunSpec.rounds"},
      {"stagger < 0", [](RunSpec& s) { s.stagger = -1e-3; }, "RunSpec.stagger"},
      {"stagger > P", [](RunSpec& s) { s.stagger = s.params.P * 1.5; },
       "RunSpec.stagger"},
      {"stagger NaN", [](RunSpec& s) { s.stagger = std::nan(""); },
       "RunSpec.stagger"},
      {"fault_count = -1",
       [](RunSpec& s) {
         s.fault = FaultKind::kSilent;
         s.fault_count = -1;
       },
       "RunSpec.fault_count"},
      {"fault_mix count < 0",
       [](RunSpec& s) { s.fault_mix = {{FaultKind::kSilent, -2}}; },
       "RunSpec.fault_mix.count"},
  };
  return table;
}

/// Runs `call` and returns the invalid_argument message ("" if none).
std::string rejection(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Validate, RejectsEveryHoleWithTheFieldName) {
  for (const Hole& hole : holes()) {
    RunSpec spec = small_spec();
    hole.apply(spec);
    const std::string direct = rejection([&] { validate(spec); });
    EXPECT_NE(direct.find(hole.field), std::string::npos)
        << hole.name << ": got \"" << direct << "\"";
    const std::string constructed = rejection([&] { Experiment experiment(spec); });
    EXPECT_NE(constructed.find(hole.field), std::string::npos) << hole.name;
    for (const RunMode mode :
         {RunMode::kMaintenance, RunMode::kStartup, RunMode::kReintegration}) {
      spec.mode = mode;
      const std::string ran = rejection([&] { (void)run(spec); });
      EXPECT_NE(ran.find(hole.field), std::string::npos)
          << hole.name << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(Validate, AcceptsTheBoundaryValues) {
  RunSpec spec = small_spec();
  spec.rounds = 1;
  EXPECT_NO_THROW(validate(spec));
  spec.stagger = 0.0;
  EXPECT_NO_THROW(validate(spec));
  spec.stagger = spec.params.P;
  EXPECT_NO_THROW(validate(spec));
  spec.stagger = 0.0;
  spec.fault = FaultKind::kSilent;
  spec.fault_count = 0;
  EXPECT_NO_THROW(validate(spec));
  spec.fault_mix = {{FaultKind::kSilent, 0}};
  EXPECT_NO_THROW(validate(spec));
  const RunResult result = run(small_spec());
  EXPECT_GE(result.completed_rounds, 1);
}

}  // namespace
}  // namespace wlsync::analysis
