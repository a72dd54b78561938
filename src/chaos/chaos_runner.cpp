#include "chaos/chaos_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "sim/event_sim.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mot::chaos {
namespace {

std::vector<NodeId> id_range(NodeId first, NodeId last_exclusive) {
  std::vector<NodeId> ids;
  ids.reserve(last_exclusive - first);
  for (NodeId v = first; v < last_exclusive; ++v) ids.push_back(v);
  return ids;
}

// Flips one bit in the middle of the file's record region (past the
// 5-byte header), simulating bit rot for the corruption fallback path.
// Flips one bit inside the payload of the journal's middle record. The
// flip must land in a payload, not a frame length: corrupting a length
// can inflate the frame past EOF, which is byte-for-byte identical to a
// genuine torn tail and is (by design) silently truncated rather than
// detected. A payload flip always trips the per-record CRC, so the
// audit can insist the restore falls back.
bool flip_one_journal_byte(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return false;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  constexpr long kHeader = 5;       // magic + version
  constexpr long kFrame = 8;        // u32 length + u32 crc
  // Walk the frames, remembering each payload's extent.
  std::vector<std::pair<long, long>> payloads;  // (offset, length)
  long pos = kHeader;
  while (pos + kFrame <= size) {
    std::fseek(file, pos, SEEK_SET);
    std::uint8_t len_bytes[4];
    if (std::fread(len_bytes, 1, 4, file) != 4) break;
    const long length = static_cast<long>(len_bytes[0]) |
                        static_cast<long>(len_bytes[1]) << 8 |
                        static_cast<long>(len_bytes[2]) << 16 |
                        static_cast<long>(len_bytes[3]) << 24;
    if (length <= 0 || pos + kFrame + length > size) break;
    payloads.emplace_back(pos + kFrame, length);
    pos += kFrame + length;
  }
  if (payloads.empty()) {
    std::fclose(file);
    return false;
  }
  const auto [offset, length] = payloads[payloads.size() / 2];
  const long at = offset + length / 2;
  std::fseek(file, at, SEEK_SET);
  const int byte = std::fgetc(file);
  std::fseek(file, at, SEEK_SET);
  std::fputc(byte ^ 0x40, file);
  std::fclose(file);
  return true;
}

}  // namespace

ChaosRunner::ChaosRunner(const RunnerParams& params)
    : params_(params),
      net_(build_chaos_net(params.topology, params.build_seed)) {
  MOT_EXPECTS(params_.rounds > 0);
  MOT_EXPECTS(params_.num_objects > 0);
  // The control plane is driven by the service model's load signals;
  // without an overload model there is nothing to adapt to.
  MOT_EXPECTS(!params_.adaptive || params_.overload);
}

RunReport ChaosRunner::run(const ChaosSchedule& schedule) {
  ++runs_;
  RunReport report;
  const SeedTree seeds(schedule.seed);
  const std::size_t n = net_.num_nodes();

  faults::FaultPlan plan;
  if (params_.link_faults.faulty()) {
    plan.set_default_faults(params_.link_faults);
  }
  faults::UnreliableChannel channel(plan, seeds.seed_for("chaos-channel"));
  Simulator sim;
  std::optional<ServiceModel> service;
  if (params_.overload) {
    overload::OverloadConfig cfg = params_.overload_config;
    cfg.seed = seeds.seed_for("overload-red");
    service.emplace(sim, n, cfg);
  }
  std::optional<adapt::AdaptiveController> tuner;
  if (params_.adaptive) {
    adapt::AdaptiveConfig acfg = params_.adaptive_config;
    acfg.seed = seeds.seed_for("adapt-placement");
    tuner.emplace(acfg);
  }
  std::optional<durable::DurableStore> store;
  if (params_.durability) {
    MOT_EXPECTS(!params_.snapshot_dir.empty());
    store.emplace(durable::DurableStore::Options{params_.snapshot_dir,
                                                 params_.journal_fsync});
    MOT_CHECK(store->ok());
  }
  // The runtime is rebuilt from scratch on every kRestart event, with
  // the same attachments, so construction lives in a factory. The
  // channel, simulator, service model and store all survive a restart —
  // they are the network and the disk, not the node software.
  auto make_engine = [&] {
    auto engine = std::make_unique<proto::DistributedMot>(
        *net_.provider, sim, net_.chain_options);
    engine->use_channel(&channel);
    if (tuner) {
      engine->replicate_placed();
    } else {
      engine->replicate_detection_lists(true);
    }
    engine->set_query_policy(params_.query_policy);
    if (params_.inject_recovery_bug) engine->break_recovery_for_tests(true);
    if (service) engine->use_overload(&*service);
    if (tuner) engine->use_adaptive(&*tuner);
    if (store) engine->use_durability(&*store);
    return engine;
  };
  std::unique_ptr<proto::DistributedMot> dist = make_engine();
  // Aborted-query counts of runtimes already torn down by a restart:
  // the termination audit must see the whole run, not just the tail.
  std::uint64_t aborted_before_restart = 0;

  std::vector<bool> dead(n, false);
  std::size_t crashed = 0;
  const std::size_t crash_cap = std::max<std::size_t>(1, n / 6);
  // Bounded rejection sampling; with at most n/6 dead nodes a uniform
  // draw misses with probability < 1/6 per try.
  auto live_node = [&](Rng& rng) {
    for (;;) {
      const NodeId v = rng.below(n);
      if (!dead[v]) return v;
    }
  };

  // Publish everything and settle before the first fault.
  Rng publish_rng = SeedTree(schedule.seed).stream("chaos-publish");
  for (ObjectId object = 0; object < params_.num_objects; ++object) {
    dist->publish(object, publish_rng.below(n));
  }
  sim.run(params_.max_sim_events);
  MOT_CHECK(sim.empty());
  // Ground the store on this run's settled world: overwrites whatever a
  // previous seed left in the directory and compacts the journal, so a
  // later restore can never alias stale state.
  if (store) {
    store->commit();
    store->write_snapshot(*net_.graph, *net_.hierarchy,
                          dist->export_durable_image());
  }

  std::vector<char> move_busy(params_.num_objects, 0);
  // Completed moves per object; a degraded answer is only auditable
  // against the staleness bound when the object held still across the
  // query's lifetime (no completed move, none in flight at either end).
  std::vector<std::uint64_t> move_epoch(params_.num_objects, 0);
  std::size_t moves_done = 0;

  struct OpenCut {
    std::uint64_t id = 0;
    int heal_round = 0;
  };
  std::vector<OpenCut> open;

  // kBurst events accumulate into a faults-layer plan; the runner reads
  // it back each round to inject the focused extra traffic.
  faults::FaultPlan traffic_plan;

  // FNV-1a fold over query answers, in callback order (deterministic:
  // the simulator is). The digest is the cross-run parity oracle — a
  // durable run with restarts must answer exactly like its reference.
  auto fold_answer = [&report](ObjectId object, const QueryResult& r) {
    const auto fold = [&report](std::uint64_t x) {
      report.answer_digest ^= x;
      report.answer_digest *= 1099511628211ull;
    };
    fold(object);
    fold(r.found ? 1 : 0);
    fold(r.found ? r.proxy : 0);
  };

  auto issue_query = [&](ObjectId object, NodeId origin) {
    ++report.queries_issued;
    const std::uint64_t epoch = move_epoch[object];
    const bool busy_at_issue = move_busy[object] != 0;
    dist->query(origin, object,
               [&, object, epoch, busy_at_issue](const QueryResult& r) {
                 ++report.queries_terminated;
                 fold_answer(object, r);
                 if (r.found && r.degraded && !busy_at_issue &&
                     move_busy[object] == 0 &&
                     move_epoch[object] == epoch) {
                   const Weight away = net_.oracle->distance(
                       r.proxy, dist->physical_position(object));
                   if (away > r.staleness_bound) {
                     report.violations.push_back(
                         "degraded answer for object " +
                         std::to_string(object) + " named node " +
                         std::to_string(r.proxy) + " at distance " +
                         std::to_string(away) +
                         " but promised staleness bound " +
                         std::to_string(r.staleness_bound));
                   }
                 }
               });
  };

  // Quiescence audit; returns false (and fills the report) on violation.
  auto check_quiescent = [&](int round) {
    std::vector<std::string>& out = report.violations;
    if (!sim.empty()) {
      out.push_back("did not quiesce within the event budget");
    } else {
      for (std::string& line : dist->invariant_violations()) {
        out.push_back(std::move(line));
      }
      const faults::ChannelStats& cs = channel.stats();
      if (cs.in_flight != 0) {
        out.push_back("channel reports " + std::to_string(cs.in_flight) +
                      " copies in flight at quiescence");
      }
      if (!cs.conserved()) {
        out.push_back(
            "channel conservation ledger violated: " +
            std::to_string(cs.transmissions) + " sent + " +
            std::to_string(cs.duplicated) + " duplicated != " +
            std::to_string(cs.delivered) + " delivered + " +
            std::to_string(cs.dropped) + " dropped + " +
            std::to_string(cs.dead_on_arrival) + " dead + " +
            std::to_string(cs.severed_in_flight) + " severed + " +
            std::to_string(cs.in_flight) + " in flight");
      }
      if (service) {
        const ServiceStats& ss = service->stats();
        if (!service->conserved()) {
          out.push_back(
              "service conservation ledger violated: " +
              std::to_string(ss.arrivals) + " arrivals vs " +
              std::to_string(ss.admitted) + " admitted + " +
              std::to_string(ss.shed_total()) + " shed, with " +
              std::to_string(ss.serviced) + " serviced and " +
              std::to_string(service->total_queued()) + " queued");
        }
        if (service->total_queued() != 0) {
          out.push_back("service queues hold " +
                        std::to_string(service->total_queued()) +
                        " admitted messages at quiescence");
        }
        if (!service->node_ledgers_conserved()) {
          out.push_back(
              "per-node service ledgers do not reconcile with the "
              "global service stats");
        }
        if (tuner) {
          // The controller's own clamp audit, plus: every tuned
          // operating point must still describe a valid RED ramp and a
          // monotone class ladder, and the engine's placed replica set
          // must fit the controller's budget.
          for (std::string& line : tuner->violations(service->config())) {
            out.push_back("controller: " + std::move(line));
          }
          for (std::size_t v = 0; v < service->num_nodes(); ++v) {
            const overload::OverloadConfig& oc = service->node_config(v);
            const std::size_t lo = oc.red_threshold();
            const std::size_t query =
                oc.admit_limit(overload::Priority::kQuery);
            const std::size_t maint =
                oc.admit_limit(overload::Priority::kMaintenance);
            if (lo > query) {
              out.push_back("node " + std::to_string(v) +
                            ": tuned RED onset " + std::to_string(lo) +
                            " sits above the query admit limit " +
                            std::to_string(query));
            }
            if (query > maint) {
              out.push_back("node " + std::to_string(v) +
                            ": tuned query admit limit " +
                            std::to_string(query) +
                            " breaks the class ladder (maintenance " +
                            std::to_string(maint) + ")");
            }
          }
          if (dist->placed_replica_count() >
              tuner->config().max_replicas) {
            out.push_back(
                "engine holds " +
                std::to_string(dist->placed_replica_count()) +
                " placed replica slots but the budget is " +
                std::to_string(tuner->config().max_replicas));
          }
        }
      }
      if (report.moves_issued != moves_done) {
        out.push_back("only " + std::to_string(moves_done) + " of " +
                      std::to_string(report.moves_issued) +
                      " moves completed");
      }
      // Crash-aborted queries die with their requester (no callback to a
      // dead node); every other query must have answered or aborted
      // through its callback. Restarts reset the tail runtime's stats,
      // so aborts of torn-down runtimes ride the accumulated baseline.
      const std::uint64_t terminated = report.queries_terminated +
                                       aborted_before_restart +
                                       dist->stats().queries_aborted;
      if (report.queries_issued != terminated) {
        out.push_back("only " + std::to_string(terminated) + " of " +
                      std::to_string(report.queries_issued) +
                      " queries terminated");
      }
      // Every live object must be locatable at its physical position.
      Rng verify_rng = SeedTree(schedule.seed).stream(
          "chaos-verify", static_cast<std::uint64_t>(round + 1));
      for (ObjectId object = 0; object < params_.num_objects; ++object) {
        if (move_busy[object] != 0) continue;  // mid-run point only
        const NodeId origin = live_node(verify_rng);
        bool answered = false;
        QueryResult result;
        dist->query(origin, object, [&](const QueryResult& r) {
          answered = true;
          result = r;
        });
        sim.run(params_.max_sim_events);
        if (!answered || !sim.empty()) {
          out.push_back("verification query for object " +
                        std::to_string(object) + " never terminated");
          break;
        }
        fold_answer(object, result);
        if (!result.found ||
            result.proxy != dist->physical_position(object)) {
          out.push_back(
              "verification query for object " + std::to_string(object) +
              " answered node " +
              std::to_string(result.found ? result.proxy : kInvalidNode) +
              " but the object is at node " +
              std::to_string(dist->physical_position(object)));
        }
      }
    }
    if (!report.violations.empty()) {
      report.violation_round = round;
      // The last moments before the oracle tripped are usually the
      // interesting ones: preserve the trace ring if a recorder is
      // installed (bench drivers wrap explorations in one).
      if (obs::FlightRecorder* recorder = obs::flight_recorder()) {
        recorder->dump("chaos-oracle");
      }
    }
    return report.violations.empty();
  };

  auto finalize = [&] {
    report.proto_stats = dist->stats();
    report.channel_stats = channel.stats();
    if (service) report.service_stats = service->stats();
  };

  // One control-plane epoch, taken only after a PASSING quiescence
  // audit: the tuner must never advance on signals from a run that is
  // already in violation. The step retires placements whose owners died
  // (they vanish from the live-gauge set), so right after it the placed
  // set naming a dead owner is a controller bug, not a race.
  auto adaptive_epoch = [&](int round) {
    if (!tuner) return true;
    dist->adaptive_step();
    for (const std::uint32_t owner : tuner->placed_owners()) {
      if (owner >= n || dead[owner]) {
        report.violations.push_back(
            "controller kept replicas placed on dead owner " +
            std::to_string(owner) + " across a quiescence step");
      }
    }
    if (!report.violations.empty()) {
      report.violation_round = round;
      return false;
    }
    return true;
  };

  double round_end = sim.now();
  for (int round = 0; round < params_.rounds; ++round) {
    // Heal cuts whose window expired.
    for (auto it = open.begin(); it != open.end();) {
      if (it->heal_round <= round) {
        channel.heal_now(it->id);
        it = open.erase(it);
      } else {
        ++it;
      }
    }

    // Fire this round's fault events, guarded at fire time: never crash
    // the root, a dead node, or a sensor physically hosting an object
    // (the object would die with it), and cap total crashes so the
    // network stays usable.
    for (const FaultEvent& event : schedule.events) {
      if (event.round != round) continue;
      switch (event.kind) {
        case FaultKind::kCrash: {
          const NodeId victim = event.victim % n;
          bool hosts = false;
          for (ObjectId object = 0; object < params_.num_objects;
               ++object) {
            if (dist->physical_position(object) == victim) hosts = true;
          }
          if (dead[victim] || victim == net_.root() || hosts ||
              crashed >= crash_cap) {
            ++report.faults_skipped;
            break;
          }
          channel.crash_now(victim);
          dead[victim] = true;
          ++crashed;
          ++report.faults_applied;
          break;
        }
        case FaultKind::kPartition: {
          const NodeId pivot =
              1 + event.pivot % static_cast<NodeId>(n - 1);
          const std::uint64_t id = channel.cut_now(
              id_range(0, pivot), id_range(pivot, static_cast<NodeId>(n)));
          open.push_back({id, round + event.duration});
          ++report.faults_applied;
          break;
        }
        case FaultKind::kIsolate: {
          const NodeId victim = event.victim % n;
          if (dead[victim]) {
            ++report.faults_skipped;
            break;
          }
          std::vector<NodeId> rest;
          for (NodeId v = 0; v < n; ++v) {
            if (v != victim) rest.push_back(v);
          }
          const std::uint64_t id = channel.cut_now({victim}, std::move(rest));
          open.push_back({id, round + event.duration});
          ++report.faults_applied;
          break;
        }
        case FaultKind::kBurst: {
          // Round numbers double as the plan's time axis; the burst
          // window [round, round + duration) is read back below when
          // this round's traffic is issued.
          traffic_plan.add_burst(
              {static_cast<double>(round),
               static_cast<double>(round + event.duration),
               static_cast<std::uint32_t>(event.victim %
                                          params_.num_objects),
               params_.burst_multiplier});
          ++report.faults_applied;
          break;
        }
        case FaultKind::kRestart: {
          // A runtime cannot restart into a mid-operation world: heal
          // every open cut and drain to a quiescence point first. The
          // durable run and its timing reference both execute this
          // part, so their traffic schedules stay aligned.
          for (const OpenCut& cut : open) channel.heal_now(cut.id);
          open.clear();
          sim.run(params_.max_sim_events);
          if (!check_quiescent(round) || !adaptive_epoch(round)) {
            finalize();
            return report;
          }
          round_end = std::max(round_end, sim.now());
          ++report.restarts;
          if (store) {
            store->commit();
            const durable::StateImage before = dist->export_durable_image();
            aborted_before_restart += dist->stats().queries_aborted;
            // The dying runtime's crash subscription captures it;
            // detach before destruction or the channel would call into
            // freed memory on the next crash event. make_engine()'s
            // use_channel re-subscribes the successor.
            channel.clear_crash_subscribers();
            dist.reset();
            if (params_.corrupt_journal) {
              flip_one_journal_byte(store->journal_path());
            }
            const durable::DurableStore::RestoreResult restored =
                store->restore(*net_.graph, *net_.hierarchy);
            dist = make_engine();
            if (restored.restored()) {
              ++report.restores;
              report.journal_replayed += restored.journal_replayed;
              if (!(restored.image == before)) {
                report.violations.push_back(
                    "restart in round " + std::to_string(round) +
                    ": restored image differs from the pre-restart "
                    "image (digest " +
                    std::to_string(restored.image.digest()) + " vs " +
                    std::to_string(before.digest()) + ")");
              }
              dist->restore_durable_image(restored.image);
            } else {
              // Typed restore failure (e.g. injected corruption):
              // rebuild from ground truth — republish every object at
              // its pre-restart physical position — then re-ground the
              // store with a fresh snapshot.
              ++report.restore_fallbacks;
              for (const auto& [object, at] : before.physical) {
                dist->publish(object, at);
              }
              sim.run(params_.max_sim_events);
              MOT_CHECK(sim.empty());
              round_end = std::max(round_end, sim.now());
              store->write_snapshot(*net_.graph, *net_.hierarchy,
                                    dist->export_durable_image());
            }
            if (tuner) {
              // The successor runtime rebuilt with an empty placed set;
              // re-mirror the controller's placements before any new
              // traffic touches the restored state.
              dist->apply_replica_placements(tuner->placed_owners(), {});
            }
            // Message-free post-restore audit: structural invariants
            // must hold before any new traffic touches the restored
            // state. (Queries would perturb the channel stream the
            // reference run consumes identically.)
            for (std::string& line : dist->invariant_violations()) {
              report.violations.push_back("post-restore: " +
                                          std::move(line));
            }
            if (!report.violations.empty()) {
              report.violation_round = round;
              finalize();
              return report;
            }
          }
          round_end += event.delay;  // downtime before traffic resumes
          ++report.faults_applied;
          break;
        }
      }
    }

    // Traffic: moves on objects with no maintenance in flight (the
    // one-by-one precondition) and queries from live origins.
    Rng traffic = SeedTree(schedule.seed).stream(
        "chaos-traffic", static_cast<std::uint64_t>(round));
    for (int i = 0; i < params_.moves_per_round; ++i) {
      const ObjectId object = traffic.below(params_.num_objects);
      if (move_busy[object] != 0) continue;
      const NodeId target = live_node(traffic);
      move_busy[object] = 1;
      ++report.moves_issued;
      dist->move(object, target, [&, object](const MoveResult&) {
        move_busy[object] = 0;
        ++move_epoch[object];
        ++moves_done;
      });
    }
    for (int i = 0; i < params_.queries_per_round; ++i) {
      const ObjectId object = traffic.below(params_.num_objects);
      const NodeId origin = live_node(traffic);
      issue_query(object, origin);
    }

    // Burst traffic: extra queries concentrated on each active burst's
    // focus object, drawn from a separate substream so the baseline
    // draws above replay bit-identically when no burst is live.
    if (!traffic_plan.bursts().empty()) {
      Rng burst_traffic = SeedTree(schedule.seed).stream(
          "chaos-burst-traffic", static_cast<std::uint64_t>(round));
      const double here = static_cast<double>(round);
      for (const faults::TrafficBurst& burst : traffic_plan.bursts()) {
        if (here < burst.start || here >= burst.end) continue;
        const int extra = static_cast<int>(
            (burst.multiplier - 1.0) *
            static_cast<double>(params_.queries_per_round));
        for (int i = 0; i < extra; ++i) {
          issue_query(static_cast<ObjectId>(burst.focus),
                      live_node(burst_traffic));
        }
      }
    }

    round_end += params_.round_time;
    sim.run_until(round_end);
    // Group-commit point: one fsync covers the whole round's records.
    if (store) store->commit();

    // Mid-run quiescence point: once the schedule leaves no cut open at
    // the halfway mark, drain and audit before resuming the storm.
    if (open.empty() && round == params_.rounds / 2) {
      sim.run(params_.max_sim_events);
      if (!check_quiescent(round) || !adaptive_epoch(round)) {
        finalize();
        return report;
      }
      // Snapshot-triggered compaction at a settled point: the journal
      // shrinks back to the suffix since here.
      if (store) {
        store->write_snapshot(*net_.graph, *net_.hierarchy,
                              dist->export_durable_image());
      }
      // The drain ran arbitrarily far past the round grid (long
      // retransmission backoffs); re-base so later rounds still execute.
      round_end = std::max(round_end, sim.now());
    }
  }

  // Every partition heals; drain to the final quiescence point.
  for (const OpenCut& cut : open) channel.heal_now(cut.id);
  open.clear();
  sim.run(params_.max_sim_events);
  check_quiescent(-1);
  finalize();
  return report;
}

ShrinkOutcome ChaosRunner::shrink(const ChaosSchedule& failing) {
  ShrinkOutcome out;
  out.schedule = failing;
  // Greedy ddmin at granularity one: delete any single event whose
  // removal keeps the schedule failing; repeat to a fixed point. The
  // traffic and channel streams derive from the seed alone, so removing
  // an event replays everything else bit-identically.
  bool progress = true;
  while (progress && out.schedule.events.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < out.schedule.events.size(); ++i) {
      ChaosSchedule candidate = out.schedule;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      ++out.probes;
      if (!run(candidate).ok()) {
        out.schedule = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return out;
}

ExplorerOutcome ChaosRunner::explore(std::uint64_t first_seed,
                                     std::uint64_t last_seed) {
  ExplorerOutcome out;
  ScheduleParams sp;
  sp.rounds = params_.rounds;
  sp.num_events = params_.events_per_schedule;
  sp.num_nodes = net_.num_nodes();
  sp.burst_events = params_.burst_events;
  sp.restart_events = params_.restart_events;
  sp.correlated_events = params_.correlated_events;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    ++out.seeds_run;
    ChaosSchedule schedule = generate_schedule(seed, sp);
    if (!run(schedule).ok()) {
      out.violation_found = true;
      out.seed = seed;
      out.schedule = std::move(schedule);
      out.shrunk = shrink(out.schedule).schedule;
      out.report = run(out.shrunk);
      MOT_CHECK(!out.report.ok());  // the repro must replay
      break;
    }
    if (seed == last_seed) break;  // avoid wrap at UINT64_MAX
  }
  out.total_runs = runs_;
  return out;
}

}  // namespace mot::chaos
