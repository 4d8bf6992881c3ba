#include "protocol/stake_state.hpp"

#include <stdexcept>

namespace fairchain::protocol {

StakeState::StakeState(std::vector<double> initial,
                       std::uint64_t withhold_period)
    : initial_(std::move(initial)), withhold_period_(withhold_period) {
  if (initial_.empty()) {
    throw std::invalid_argument("StakeState: at least one miner required");
  }
  for (const double s : initial_) {
    if (s < 0.0) {
      throw std::invalid_argument("StakeState: negative initial stake");
    }
    initial_total_ += s;
  }
  if (!(initial_total_ > 0.0)) {
    throw std::invalid_argument("StakeState: initial stakes sum to zero");
  }
  stake_ = initial_;
  income_.assign(initial_.size(), 0.0);
  pending_.assign(initial_.size(), 0.0);
  total_stake_ = initial_total_;
  sampler_.Build(stake_);
}

void StakeState::Credit(std::size_t i, double amount, bool compounds) {
  if (amount < 0.0) {
    throw std::invalid_argument("StakeState::Credit: negative amount");
  }
  if (!compounds) {
    CreditIncome(i, amount);
  } else if (withhold_period_ == 0) {
    CreditCompounding(i, amount);
  } else {
    CreditWithheld(i, amount);
  }
}

void StakeState::ReleaseWithheld() {
  bool released = false;
  for (std::size_t i = 0; i < stake_.size(); ++i) {
    if (pending_[i] != 0.0) {
      stake_[i] += pending_[i];
      total_stake_ += pending_[i];
      pending_[i] = 0.0;
      released = true;
    }
  }
  if (released) {
    // A boundary can release up to m pending rewards at once; one O(m)
    // rebuild beats m separate O(log m) update paths.
    RebuildSampler();
    ++stake_version_;
  }
}

void StakeState::RebuildSampler() {
  sampler_.Build(stake_);
  sampler_stale_ = false;
}

void StakeState::CreditProportionalAndSlots(double per_stake,
                                            double per_slot,
                                            std::uint32_t* slots) {
  const bool withholding = withhold_period_ != 0;
  // Rewards become mining power now, or pending until the next boundary.
  double* power = withholding ? pending_.data() : stake_.data();
  // One pass, one running sum: the totals take the epoch's sum once
  // instead of m dependent additions.
  double minted = 0.0;
  for (std::size_t i = 0; i < stake_.size(); ++i) {
    const double reward = per_stake * stake_[i] + per_slot * slots[i];
    slots[i] = 0;
    income_[i] += reward;
    power[i] += reward;
    minted += reward;
  }
  total_income_ += minted;
  if (!withholding) {
    total_stake_ += minted;
    sampler_stale_ = true;
    ++stake_version_;
  }
}

double StakeState::PendingTotal() const {
  double total = 0.0;
  for (const double p : pending_) total += p;
  return total;
}

void StakeState::Reset() {
  stake_ = initial_;
  for (auto& value : income_) value = 0.0;
  for (auto& value : pending_) value = 0.0;
  total_stake_ = initial_total_;
  total_income_ = 0.0;
  step_ = 0;
  RebuildSampler();
  ++stake_version_;
}

void StakeState::WealthVector(std::vector<double>* out) const {
  out->resize(initial_.size());
  for (std::size_t i = 0; i < initial_.size(); ++i) {
    (*out)[i] = initial_[i] + income_[i];
  }
}

}  // namespace fairchain::protocol
