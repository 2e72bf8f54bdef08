#include "runner/profile.hpp"

#include "core/four_bit_estimator.hpp"
#include "estimators/broadcast_etx.hpp"
#include "estimators/lqi_estimator.hpp"

namespace fourbit::runner {

std::string_view profile_name(Profile p) {
  switch (p) {
    case Profile::kFourBit:
      return "4B";
    case Profile::kCtpT2:
      return "CTP-T2";
    case Profile::kCtpUnidirAck:
      return "CTP+ack";
    case Profile::kCtpWhiteCompare:
      return "CTP+white/compare";
    case Profile::kCtpUnconstrained:
      return "CTP-unconstrained";
    case Profile::kMultihopLqi:
      return "MultiHopLQI";
  }
  return "?";
}

std::unique_ptr<link::LinkEstimator> make_estimator(
    Profile p, NodeId self, std::size_t table_capacity, sim::Rng rng,
    const std::optional<core::FourBitConfig>& four_bit_override) {
  switch (p) {
    case Profile::kFourBit: {
      core::FourBitConfig cfg =
          four_bit_override.value_or(core::FourBitConfig{});
      cfg.table_capacity = table_capacity;
      cfg.insertion = link::InsertionPolicy::kWhiteCompare;
      return std::make_unique<core::FourBitEstimator>(cfg, rng);
    }
    case Profile::kCtpUnidirAck: {
      core::FourBitConfig cfg =
          four_bit_override.value_or(core::FourBitConfig{});
      cfg.table_capacity = table_capacity;
      cfg.insertion = link::InsertionPolicy::kProbabilistic;
      return std::make_unique<core::FourBitEstimator>(cfg, rng);
    }
    case Profile::kCtpT2: {
      estimators::BroadcastEtxConfig cfg;
      cfg.table_capacity = table_capacity;
      cfg.insertion = link::InsertionPolicy::kProbabilistic;
      return std::make_unique<estimators::BroadcastEtxEstimator>(self, cfg,
                                                                 rng);
    }
    case Profile::kCtpWhiteCompare: {
      estimators::BroadcastEtxConfig cfg;
      cfg.table_capacity = table_capacity;
      cfg.insertion = link::InsertionPolicy::kWhiteCompare;
      return std::make_unique<estimators::BroadcastEtxEstimator>(self, cfg,
                                                                 rng);
    }
    case Profile::kCtpUnconstrained: {
      estimators::BroadcastEtxConfig cfg;
      cfg.table_capacity = 0;  // unbounded
      cfg.footer_max = 24;     // bigger LEEP frames keep reverse info fresh
      cfg.insertion = link::InsertionPolicy::kProbabilistic;
      return std::make_unique<estimators::BroadcastEtxEstimator>(self, cfg,
                                                                 rng);
    }
    case Profile::kMultihopLqi: {
      estimators::LqiEstimatorConfig cfg;
      cfg.table_capacity = 16;
      return std::make_unique<estimators::LqiEstimator>(cfg);
    }
  }
  return nullptr;
}

net::CollectionConfig make_collection_config(Profile p) {
  net::CollectionConfig cfg;
  if (p == Profile::kMultihopLqi) {
    cfg.beacon_timing = net::BeaconTiming::kFixed;
    cfg.fixed_beacon_interval = sim::Duration::from_seconds(30.0);
    cfg.max_retransmissions = 5;
    cfg.datapath_feedback = false;
    cfg.snoop = false;
    cfg.parent_switch_threshold = 0.5;
    // MultiHopLQI has no datapath feedback into routing at all — it does
    // not notice a dead parent either. Keeping eviction off preserves
    // the wedge-on-failure behavior the paper contrasts 4B against.
    cfg.parent_evict_failures = 0;
  }
  return cfg;
}

}  // namespace fourbit::runner
