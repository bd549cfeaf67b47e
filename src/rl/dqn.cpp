#include "rl/dqn.h"

#include <algorithm>

#include "telemetry/registry.h"
#include "util/logging.h"

namespace lpa::rl {

namespace {

struct DqnMetrics {
  telemetry::Counter& train_steps;
  telemetry::Gauge& loss;
  telemetry::Gauge& replay_size;
  telemetry::Gauge& replay_bytes;

  static DqnMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static DqnMetrics* m = new DqnMetrics{
        reg.GetCounter("rl.train_steps.count"),
        reg.GetGauge("rl.loss.value"),
        reg.GetGauge("rl.replay_size.count"),
        reg.GetGauge("rl.replay_bytes.bytes")};
    return *m;
  }
};

}  // namespace

DqnAgent::DqnAgent(const partition::Featurizer* featurizer,
                   const partition::ActionSpace* actions, DqnConfig config)
    : featurizer_(featurizer),
      actions_(actions),
      config_(std::move(config)),
      replay_(static_cast<size_t>(config_.replay_capacity)),
      epsilon_(config_.epsilon_start) {
  nn::MlpConfig net;
  net.input_dim = featurizer_->state_dim();
  net.hidden = config_.hidden;
  net.output_dim = actions_->size();
  net.seed = config_.seed;
  q_ = std::make_unique<nn::Mlp>(net);
  net.seed = config_.seed + 1;  // "randomly initialize target network"
  target_ = std::make_unique<nn::Mlp>(net);
}

std::vector<double> DqnAgent::QValues(const std::vector<double>& state_enc,
                                      const std::vector<int>& legal) const {
  std::vector<double> all = q_->Forward(state_enc);
  std::vector<double> values(legal.size());
  for (size_t i = 0; i < legal.size(); ++i) {
    values[i] = all[static_cast<size_t>(legal[i])];
  }
  return values;
}

int DqnAgent::SelectAction(const std::vector<double>& state_enc,
                           const std::vector<int>& legal, double epsilon,
                           Rng* rng) const {
  LPA_CHECK(!legal.empty());
  if (rng->Uniform() < epsilon) {
    return legal[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
  }
  return GreedyAction(state_enc, legal);
}

int DqnAgent::GreedyAction(const std::vector<double>& state_enc,
                           const std::vector<int>& legal) const {
  // First max: ties go to the earliest legal entry.
  std::vector<double> values = QValues(state_enc, legal);
  size_t best = 0;
  for (size_t i = 1; i < legal.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return legal[best];
}

void DqnAgent::DecayEpsilon() {
  epsilon_ = std::max(epsilon_ * config_.epsilon_decay, config_.epsilon_min);
}

void DqnAgent::Observe(Transition t) { replay_.Add(t); }

double DqnAgent::TrainStep(Rng* rng, ThreadPool* pool) {
  return TrainStepFrom(replay_, rng, pool);
}

double DqnAgent::TrainStepFrom(const ReplayBuffer& replay, Rng* rng,
                               ThreadPool* pool) {
  if (replay.size() < static_cast<size_t>(config_.batch_size)) return 0.0;
  LearnerScratch& ls = scratch_;
  replay.Sample(static_cast<size_t>(config_.batch_size), rng, &ls.batch);
  const std::vector<size_t>& batch = ls.batch;
  const size_t state_dim = static_cast<size_t>(featurizer_->state_dim());
  for (size_t row : batch) {
    LPA_CHECK(replay.state_dim(row) == state_dim &&
              replay.next_dim(row) == state_dim);
  }

  // TD targets r + gamma * max_a' Q_target(s', a'), from the target
  // network's pass over the next states, which the Q-network's step runs next
  // to its own forward pass. The sampled rows decode straight into the batch
  // matrices; the soft target update rides in the Q-network's parameter pass.
  ls.next_x.Resize(batch.size(), state_dim);
  ls.x.Resize(batch.size(), state_dim);
  ls.heads.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    replay.DecodeNextState(batch[i], ls.next_x.row(i));
    replay.DecodeState(batch[i], ls.x.row(i));
    ls.heads[i] = replay.action_id(batch[i]);
  }
  const double gamma = config_.gamma;
  const nn::ForwardTargets targets{
      target_.get(), &ls.next_x,
      [&replay, &batch, gamma](const nn::Matrix& next_q,
                               std::vector<double>* y) {
        for (size_t i = 0; i < batch.size(); ++i) {
          double best = -1e30;
          replay.ForEachNextLegal(batch[i], [&](int a) {
            best = std::max(best, next_q.at(i, static_cast<size_t>(a)));
          });
          (*y)[i] = replay.reward(batch[i]) + gamma * best;
        }
      }};
  const double loss =
      q_->TrainMaskedMse(ls.x, ls.heads, targets, config_.learning_rate, pool,
                         nn::SoftTarget{target_.get(), config_.tau});
  auto& dm = DqnMetrics::Get();
  dm.train_steps.Add();
  dm.loss.Set(loss);
  dm.replay_size.Set(static_cast<double>(replay.size()));
  dm.replay_bytes.Set(static_cast<double>(replay.stored_bytes()));
  return loss;
}

Status DqnAgent::Save(std::ostream& os) const {
  os << "dqn-agent " << epsilon_ << '\n';
  LPA_RETURN_NOT_OK(q_->Save(os));
  LPA_RETURN_NOT_OK(target_->Save(os));
  return Status::OK();
}

Status DqnAgent::Load(std::istream& is) {
  std::string magic;
  is >> magic;
  if (magic != "dqn-agent" || !is.good()) {
    return Status::InvalidArgument("not a dqn-agent snapshot");
  }
  return LoadAfterMagic(is);
}

Status DqnAgent::LoadAfterMagic(std::istream& is) {
  double epsilon = 0.0;
  is >> epsilon;
  if (!is.good()) {
    return Status::InvalidArgument("truncated dqn-agent snapshot");
  }
  auto q = nn::Mlp::Load(is);
  if (!q.ok()) return q.status();
  auto target = nn::Mlp::Load(is);
  if (!target.ok()) return target.status();
  if (q->input_dim() != featurizer_->state_dim() ||
      q->output_dim() != q_->output_dim()) {
    return Status::FailedPrecondition(
        "snapshot shape does not match this agent's featurizer/action space");
  }
  epsilon_ = epsilon;
  *q_ = std::move(*q);
  *target_ = std::move(*target);
  return Status::OK();
}

void DqnAgent::CopyWeightsFrom(const DqnAgent& other) {
  q_->CopyFrom(*other.q_);
  target_->CopyFrom(*other.target_);
}

void DqnAgent::ExtendStateInputs(int extra,
                                 const partition::Featurizer* new_featurizer) {
  LPA_CHECK(extra >= 0);
  LPA_CHECK(new_featurizer->state_dim() == featurizer_->state_dim() + extra);
  // The grown inputs are appended at the tail, which is where the featurizer
  // puts frequency slots.
  *q_ = q_->WithExtendedInput(extra);
  *target_ = target_->WithExtendedInput(extra);
  featurizer_ = new_featurizer;
  // Old replay entries encode the smaller state; drop them.
  replay_ = ReplayBuffer(static_cast<size_t>(config_.replay_capacity));
}

}  // namespace lpa::rl
