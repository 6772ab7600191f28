// Micro-benchmarks for the model-level building blocks: one GRU step, a
// full BiGRU pass (forward, and forward+backward at the train_dist shape),
// TITV forward and forward+backward, the Eq. 17 feature importance
// extraction, and a GBDT tree fit. These quantify where
// training time goes and back the ablation discussion in DESIGN.md.

#include <benchmark/benchmark.h>

#include "autograd/ops.h"
#include "bench/micro_main.h"
#include "baselines/gbdt.h"
#include "core/titv.h"
#include "nn/gru.h"

namespace tracer {
namespace {

using autograd::Variable;

data::Batch MakeBatch(int batch, int windows, int features, uint64_t seed) {
  Rng rng(seed);
  data::TimeSeriesDataset ds(data::TaskType::kBinaryClassification, batch,
                             windows, features);
  for (int i = 0; i < batch; ++i) {
    for (int t = 0; t < windows; ++t) {
      for (int d = 0; d < features; ++d) {
        ds.at(i, t, d) = static_cast<float>(rng.Uniform());
      }
    }
    ds.set_label(i, rng.Bernoulli(0.3) ? 1.0f : 0.0f);
  }
  return data::FullBatch(ds);
}

void BM_GruStep(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::GruCell cell(32, h, rng);
  const Variable x = Variable::Constant(Tensor::Randn({64, 32}, rng));
  const Variable h0 = Variable::Constant(Tensor::Zeros({64, h}));
  for (auto _ : state) {
    Variable out = cell.Step(x, h0);
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_GruStep)->Arg(16)->Arg(64)->Arg(256);

void BM_BiGruSequence(benchmark::State& state) {
  const int t_windows = static_cast<int>(state.range(0));
  Rng rng(2);
  nn::BiGru rnn(32, 32, rng);
  std::vector<Variable> xs;
  for (int t = 0; t < t_windows; ++t) {
    xs.push_back(Variable::Constant(Tensor::Randn({64, 32}, rng)));
  }
  for (auto _ : state) {
    auto states = rnn.Run(xs);
    benchmark::DoNotOptimize(states.back().value().data());
  }
}
BENCHMARK(BM_BiGruSequence)->Arg(7)->Arg(24);

// Forward + backward of one BiGRU at the train_dist shape: a 16-row shard,
// MIMIC's 26 features, hidden 16, T = 24. The inputs take gradients, as they
// do behind TITV's FiLM modulation. Each step records six matmul nodes and
// one gru_gates node; this row prices that recurrent core, which BM_GruStep
// (forward only, 64 rows) does not.
void BM_BiGruForwardBackward(benchmark::State& state) {
  Rng rng(4);
  nn::BiGru rnn(26, 16, rng);
  std::vector<Variable> leaves = rnn.Parameters();
  std::vector<Variable> xs;
  for (int t = 0; t < 24; ++t) {
    xs.push_back(Variable::Parameter(Tensor::Randn({16, 26}, rng)));
    leaves.push_back(xs.back());
  }
  for (auto _ : state) {
    autograd::MeanAll(autograd::Average(rnn.Run(xs))).Backward();
    benchmark::DoNotOptimize(xs[0].grad().data());
    for (Variable& leaf : leaves) leaf.ZeroGrad();
  }
}
BENCHMARK(BM_BiGruForwardBackward);

core::TitvConfig BenchTitvConfig(int dims) {
  core::TitvConfig config;
  config.input_dim = 32;
  config.rnn_dim = dims;
  config.film_dim = dims;
  config.seed = 3;
  return config;
}

void BM_TitvForward(benchmark::State& state) {
  core::Titv model(BenchTitvConfig(static_cast<int>(state.range(0))));
  const data::Batch batch = MakeBatch(64, 7, 32, 4);
  const auto xs = nn::SequenceModel::ToVariables(batch);
  for (auto _ : state) {
    Variable out = model.Forward(xs);
    benchmark::DoNotOptimize(out.value().data());
  }
}
BENCHMARK(BM_TitvForward)->Arg(16)->Arg(64);

void BM_TitvForwardBackward(benchmark::State& state) {
  core::Titv model(BenchTitvConfig(static_cast<int>(state.range(0))));
  const data::Batch batch = MakeBatch(64, 7, 32, 5);
  const auto xs = nn::SequenceModel::ToVariables(batch);
  auto params = model.Parameters();
  for (auto _ : state) {
    for (auto& p : params) p.ZeroGrad();
    Variable loss =
        autograd::BinaryCrossEntropyWithLogits(model.Forward(xs),
                                               batch.labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.value().data());
  }
}
BENCHMARK(BM_TitvForwardBackward)->Arg(16)->Arg(64);

void BM_FeatureImportance(benchmark::State& state) {
  core::Titv model(BenchTitvConfig(16));
  const data::Batch batch =
      MakeBatch(static_cast<int>(state.range(0)), 7, 32, 6);
  for (auto _ : state) {
    core::FeatureImportanceTrace trace =
        model.ComputeFeatureImportance(batch);
    benchmark::DoNotOptimize(trace.outputs.data());
  }
}
BENCHMARK(BM_FeatureImportance)->Arg(1)->Arg(64);

void BM_GbdtTreeFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  baselines::TabularData tab;
  tab.num_rows = n;
  tab.num_cols = 32;
  std::vector<float> grad(n), hess(n, 1.0f);
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < 32; ++d) {
      tab.values.push_back(static_cast<float>(rng.Normal()));
    }
    grad[i] = static_cast<float>(rng.Normal());
    rows[i] = i;
  }
  baselines::GbdtConfig config;
  config.max_depth = 3;
  for (auto _ : state) {
    baselines::RegressionTree tree;
    tree.Fit(tab, grad, hess, rows, config);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GbdtTreeFit)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace tracer

int main(int argc, char** argv) {
  return tracer::bench::RunMicroBenchmarks("micro_model", argc, argv);
}
