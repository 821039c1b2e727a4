#include "inputs.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "harness/paper_params.hpp"
#include "model/fault_env.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ah = adacheck::harness;

namespace {

// Stream ids for derive_seed, one per kind of generated input.
constexpr std::uint64_t kPaperStream = 1;
constexpr std::uint64_t kFaultEnvStream = 2;
constexpr std::uint64_t kCampaignStream = 3;
constexpr std::uint64_t kServeStream = 4;

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index = 0) {
  // Scenario documents carry seeds as JSON numbers: keep them exact
  // in a double.
  return adacheck::util::derive_seed(seed, stream * 1'000'003 + index) >> 11;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os.flush()) throw std::runtime_error(path.string() + ": write failed");
}

}  // namespace

SweepInput paper_tables_input(std::uint64_t seed) {
  SweepInput input;
  input.specs = ah::all_paper_tables();
  input.config.seed = input_seed(seed, kPaperStream);
  input.config.threads = 1;
  input.config.runs = 4096;
  input.config.budget.target_p_halfwidth = 0.015;
  input.config.budget.min_runs = 512;
  input.config.budget.max_runs = 4096;
  return input;
}

SweepInput fault_envs_input(std::uint64_t seed) {
  ah::ExperimentSpec base;
  base.id = "fault_envs";
  base.title = "Cheap schemes on a high-lambda grid";
  base.costs = adacheck::model::CheckpointCosts::paper_scp_flavor();
  base.fault_tolerance = 5;
  base.schemes = {"Poisson", "k-f-t", "A_D", "A_D-est"};
  for (const double u : {0.72, 0.76, 0.80}) {
    for (const double lambda : {1.6e-3, 2.4e-3}) {
      base.rows.push_back({u, lambda, {}});
    }
  }

  ah::GraphExperimentSpec graph;
  graph.id = "fault_envs_dag";
  graph.title = "Fork-join diamond, cheap node policies";
  auto& g = graph.graph;
  g.name = "diamond";
  g.period = 18'000.0;
  g.deadline = 17'000.0;
  const std::size_t bus = g.add_resource("bus", 1);
  g.add_node({"split", 1500.0, 2, "A_D", {}});
  g.add_node({"left", 4000.0, 2, "A_D", {bus}});
  g.add_node({"right", 3500.0, 2, "Poisson", {bus}});
  g.add_node({"join", 1000.0, 2, "Poisson", {}});
  g.add_edge("split", "left");
  g.add_edge("split", "right");
  g.add_edge("left", "join");
  g.add_edge("right", "join");
  graph.workers = 2;
  graph.instances = 6;
  graph.costs = adacheck::model::CheckpointCosts::paper_scp_flavor();
  graph.schedulers = {"edf", "critical-path"};
  graph.lambdas = {8e-4, 1.6e-3};

  SweepInput input;
  input.specs =
      ah::with_environments({base}, adacheck::model::known_environments());
  input.graphs = {graph};
  input.config.seed = input_seed(seed, kFaultEnvStream);
  input.config.threads = 1;
  input.config.runs = 768;
  input.config.metrics =
      adacheck::sim::make_metric_suite({"tails", "checkpoints"});
  return input;
}

adacheck::campaign::CampaignSpec write_campaign_inputs(
    const std::filesystem::path& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  // Three small scenarios that differ in flavor and schemes.
  const char* kScenarios[][3] = {
      {"scp", "\"store\": 2, \"compare\": 20", "\"Poisson\", \"A_D\""},
      {"ccp", "\"store\": 20, \"compare\": 2", "\"k-f-t\", \"A_D\""},
      {"est", "\"store\": 2, \"compare\": 20", "\"Poisson\", \"A_D-est\""},
  };
  std::ostringstream matrix;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string name = std::string("cc_") + kScenarios[i][0];
    std::ostringstream doc;
    doc << "{\"schema\": \"adacheck-scenario-v1\", \"name\": \"" << name
        << "\", \"config\": {\"runs\": 256, \"seed\": "
        << input_seed(seed, kCampaignStream, i)
        << "}, \"experiments\": [{\"id\": \"" << name
        << "\", \"costs\": {" << kScenarios[i][1]
        << ", \"rollback\": 0}, \"fault_tolerance\": 5, \"schemes\": ["
        << kScenarios[i][2]
        << "], \"grid\": {\"utilization\": [0.76, 0.8], "
           "\"lambda\": [1.4e-3, 1.6e-3]}}]}\n";
    write_file(dir / (name + ".json"), doc.str());
    matrix << (i == 0 ? "" : ",\n") << "  {\"scenario\": \"" << name
           << ".json\", \"runs\": 256, \"environments\": [\"poisson\", "
              "\"weibull-infant\", \"bursty-orbit\"], \"seeds\": [";
    for (std::size_t s = 0; s < 4; ++s) {
      matrix << (s == 0 ? "" : ", ")
             << input_seed(seed, kCampaignStream, 100 + 10 * i + s);
    }
    matrix << "]}";
  }
  const std::filesystem::path doc_path = dir / "campaign.json";
  write_file(doc_path,
             "{\"schema\": \"adacheck-campaign-v1\", \"name\": \"perfbench\", "
             "\"cache_dir\": \"cache\", \"matrix\": [\n" +
                 matrix.str() + "\n]}\n");
  auto spec = adacheck::campaign::load_campaign_file(doc_path.string());
  spec.cache_dir = (dir / "cache").string();
  return spec;
}

std::vector<std::string> serve_documents(std::uint64_t seed,
                                         std::size_t count) {
  std::vector<std::string> docs;
  docs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::ostringstream doc;
    doc << "{\"schema\":\"adacheck-scenario-v1\",\"name\":\"serve_" << i
        << "\",\"config\":{\"runs\":256,\"seed\":"
        << input_seed(seed, kServeStream, i)
        << "},\"experiments\":[{\"id\":\"serve\",\"fault_tolerance\":5,"
           "\"schemes\":[\"Poisson\",\"A_D\"],\"grid\":{\"utilization\":"
           "[0.76,0.8],\"lambda\":[1.4e-3]}}]}";
    docs.push_back(doc.str());
  }
  return docs;
}

}  // namespace perfbench
