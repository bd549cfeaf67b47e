#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "nn/matrix.h"
#include "util/rng.h"

namespace lpa::nn {
namespace {

TEST(MatrixTest, BasicAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  Matrix r = Matrix::FromRow({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_DOUBLE_EQ(r.at(0, 2), 3.0);
}

TEST(MatrixTest, Gemm) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c(2, 2);
  Gemm(a, b, &c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(MlpTest, DeterministicInitialization) {
  MlpConfig config;
  config.input_dim = 4;
  config.hidden = {8};
  config.output_dim = 2;
  config.seed = 7;
  Mlp a(config), b(config);
  Matrix x = Matrix::FromRow({0.1, -0.2, 0.3, 0.4});
  EXPECT_EQ(a.Forward(x).data(), b.Forward(x).data());
}

TEST(MlpTest, ParameterCount) {
  MlpConfig config;
  config.input_dim = 10;
  config.hidden = {128, 64};
  config.output_dim = 3;
  Mlp mlp(config);
  EXPECT_EQ(mlp.num_parameters(),
            10u * 128 + 128 + 128u * 64 + 64 + 64u * 3 + 3);
}

TEST(MlpTest, LearnsLinearFunction) {
  // y = 2*x0 - 3*x1 + 1 should be easy for a small ReLU net.
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {16};
  config.output_dim = 1;
  config.seed = 3;
  Mlp mlp(config);
  Rng rng(5);
  double loss = 0.0;
  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 2);
    Matrix y(16, 1);
    for (size_t r = 0; r < 16; ++r) {
      double x0 = rng.Uniform(-1, 1), x1 = rng.Uniform(-1, 1);
      x.at(r, 0) = x0;
      x.at(r, 1) = x1;
      y.at(r, 0) = 2 * x0 - 3 * x1 + 1;
    }
    loss = mlp.TrainMse(x, y, 1e-3);
  }
  EXPECT_LT(loss, 0.01);
}

TEST(MlpTest, MaskedTrainingOnlyMovesSelectedHead) {
  MlpConfig config;
  config.input_dim = 3;
  config.hidden = {8};
  config.output_dim = 4;
  config.seed = 11;
  Mlp mlp(config);
  Matrix x = Matrix::FromRow({0.5, -0.5, 1.0});
  auto before = mlp.Forward(x).data();
  // Train head 2 toward a far-away value with one large step.
  mlp.TrainMaskedMse(x, {2}, {5.0}, 0.05);
  auto after = mlp.Forward(x).data();
  // Head 2 moved toward the target.
  EXPECT_GT(std::abs(after[2] - before[2]), 1e-3);
  EXPECT_LT(std::abs(after[2] - 5.0), std::abs(before[2] - 5.0));
}

TEST(MlpTest, MaskedTrainingLearnsPerHeadTargets) {
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {16};
  config.output_dim = 3;
  config.seed = 13;
  Mlp mlp(config);
  Rng rng(17);
  // Head h should learn f_h(x) = h + x0.
  for (int step = 0; step < 4000; ++step) {
    Matrix x(8, 2);
    std::vector<int> heads(8);
    std::vector<double> targets(8);
    for (size_t r = 0; r < 8; ++r) {
      double x0 = rng.Uniform(-1, 1);
      x.at(r, 0) = x0;
      x.at(r, 1) = rng.Uniform(-1, 1);
      int h = static_cast<int>(rng.UniformInt(0, 2));
      heads[r] = h;
      targets[r] = h + x0;
    }
    mlp.TrainMaskedMse(x, heads, targets, 1e-3);
  }
  auto out = mlp.Forward(std::vector<double>{0.25, 0.0});
  EXPECT_NEAR(out[0], 0.25, 0.15);
  EXPECT_NEAR(out[1], 1.25, 0.15);
  EXPECT_NEAR(out[2], 2.25, 0.15);
}

TEST(MlpTest, SoftUpdateBlendsWeights) {
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {4};
  config.output_dim = 1;
  config.seed = 1;
  Mlp target(config);
  config.seed = 2;
  Mlp online(config);
  Matrix x = Matrix::FromRow({0.3, 0.7});
  double t0 = target.Forward(x).at(0, 0);
  double o0 = online.Forward(x).at(0, 0);
  target.SoftUpdateFrom(online, 1.0);  // full copy
  EXPECT_NEAR(target.Forward(x).at(0, 0), o0, 1e-12);
  (void)t0;

  // Partial update moves the target toward the online net.
  config.seed = 1;
  Mlp target2(config);
  double before = std::abs(target2.Forward(x).at(0, 0) - o0);
  target2.SoftUpdateFrom(online, 0.1);
  double after = std::abs(target2.Forward(x).at(0, 0) - o0);
  EXPECT_LT(after, before);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  MlpConfig config;
  config.input_dim = 5;
  config.hidden = {12, 6};
  config.output_dim = 2;
  config.seed = 21;
  Mlp mlp(config);
  // Perturb away from init so we test real weights.
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    Matrix x(4, 5);
    Matrix y(4, 2);
    for (size_t r = 0; r < 4; ++r) {
      for (size_t c = 0; c < 5; ++c) x.at(r, c) = rng.Uniform(-1, 1);
      y.at(r, 0) = rng.Uniform();
      y.at(r, 1) = rng.Uniform();
    }
    mlp.TrainMse(x, y, 1e-3);
  }
  std::stringstream ss;
  ASSERT_TRUE(mlp.Save(ss).ok());
  auto loaded = Mlp::Load(ss);
  ASSERT_TRUE(loaded.ok());
  Matrix x = Matrix::FromRow({0.1, 0.2, 0.3, 0.4, 0.5});
  EXPECT_EQ(mlp.Forward(x).data(), loaded->Forward(x).data());
}

TEST(MlpTest, LoadRejectsGarbage) {
  std::stringstream ss("not an mlp");
  EXPECT_FALSE(Mlp::Load(ss).ok());
}

/// A trained 5-12-6-2 network's Save stream, with its first weight replaced
/// by `token`.
std::string StreamWithFirstWeight(const std::string& token) {
  MlpConfig config;
  config.input_dim = 5;
  config.hidden = {12, 6};
  config.output_dim = 2;
  std::stringstream ss;
  EXPECT_TRUE(Mlp(config).Save(ss).ok());
  std::string text = ss.str();
  const size_t begin = text.find('\n') + 1;
  const size_t end = text.find(' ', begin);
  return text.replace(begin, end - begin, token);
}

TEST(MlpTest, LoadRejectsNonFiniteWeights) {
  for (const char* token : {"nan", "inf", "-inf", "1e309"}) {
    std::stringstream ss(StreamWithFirstWeight(token));
    const auto loaded = Mlp::Load(ss);
    ASSERT_FALSE(loaded.ok()) << token;
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("mlp layer 0: non-finite weight"),
              std::string::npos)
        << token << ": " << loaded.status().ToString();
  }
  std::stringstream garbage(StreamWithFirstWeight("0.5x"));
  const auto loaded = Mlp::Load(garbage);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unparsable weight '0.5x'"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(MlpTest, LoadKeepsSubnormalWeights) {
  const double subnormal = std::numeric_limits<double>::denorm_min() * 3;
  std::ostringstream token;
  token.precision(17);
  token << subnormal;
  std::stringstream ss(StreamWithFirstWeight(token.str()));
  const auto loaded = Mlp::Load(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->layer_weights(0).data()[0], subnormal);
  std::stringstream again;
  EXPECT_TRUE(loaded->Save(again).ok());
}

TEST(MlpTest, SaveRefusesNonFiniteWeights) {
  // A learning rate this large overflows the weights within a few steps.
  MlpConfig config;
  config.input_dim = 3;
  config.hidden = {8};
  config.output_dim = 1;
  Mlp mlp(config);
  const Matrix x = Matrix::FromRows({{1.0, 2.0, 3.0}, {-1.0, 0.5, 2.0}});
  const Matrix y = Matrix::FromRows({{1.0}, {-1.0}});
  for (int i = 0; i < 8; ++i) mlp.TrainMse(x, y, 1e300);
  std::stringstream ss;
  const Status status = mlp.Save(ss);
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("non-finite weight"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(ss.str().empty()) << "nothing is written";
}

TEST(RngTest, Determinism) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
  Rng c(99);
  Rng fork1 = c.Fork();
  // Forked generators differ from the parent stream.
  EXPECT_NE(fork1.UniformInt(0, 1'000'000), Rng(99).UniformInt(0, 1'000'000));
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(4);
  int low = 0, total = 20'000;
  for (int i = 0; i < total; ++i) {
    if (zipf.Sample(&rng) <= 10) ++low;
  }
  // Under uniform sampling only ~10% fall in [1,10]; Zipf(1.2) concentrates.
  EXPECT_GT(low, total / 2);
}

}  // namespace
}  // namespace lpa::nn
