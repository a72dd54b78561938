#include "tracking/chain_tracker.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mot {

ChainTracker::ChainTracker(std::string name, const PathProvider& provider,
                           const ChainOptions& options)
    : name_(std::move(name)), provider_(&provider), options_(options) {}

Weight ChainTracker::distance(NodeId a, NodeId b) const {
  return provider_->oracle().distance(a, b);
}

void ChainTracker::charge_hop(NodeId from, NodeId to, ObjectId object,
                              obs::Ev kind, std::int32_t level) {
  if (from == to) return;
  const Weight d = distance(from, to);
  meter_.charge(d);
  if (obs::tracing()) {
    obs::emit({.type = kind,
               .object = object,
               .from = from,
               .to = to,
               .level = level,
               .dist = d,
               .charged = d});
  }
}

void ChainTracker::charge_access(OverlayNode owner, ObjectId object) {
  if (!options_.charge_delegate_routing) return;
  const auto access = provider_->delegate(owner, object);
  if (access.route_cost > 0.0) {
    meter_.charge(access.route_cost);
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kAccessRoute,
                 .object = object,
                 .from = owner.node,
                 .to = access.storage,
                 .level = owner.level,
                 .dist = access.route_cost,
                 .charged = access.route_cost});
    }
  }
}

void ChainTracker::add_entry(OverlayNode owner, ObjectId object,
                             OverlayNode child,
                             std::optional<OverlayNode> sp) {
  if (!options_.use_special_lists) sp.reset();
  NodeState& node = state_[owner];
  MOT_CHECK(node.dl.count(object) == 0);
  node.dl.emplace(object, DlEntry{child, sp});
  journal(durable::JournalRecord::make_insert(owner, object, child, sp));
  if (sp) {
    if (options_.charge_special_updates) {
      charge_hop(owner.node, sp->node, object, obs::Ev::kSpHop, sp->level);
      charge_access(*sp, object);
    }
    state_[*sp].sdl[object].push_back(owner);
    journal(durable::JournalRecord::make_sdl_add(*sp, object, owner));
  }
}

void ChainTracker::remove_sdl_record(OverlayNode sp, ObjectId object,
                                     OverlayNode child) {
  auto node_it = state_.find(sp);
  MOT_CHECK(node_it != state_.end());
  auto list_it = node_it->second.sdl.find(object);
  MOT_CHECK(list_it != node_it->second.sdl.end());
  auto& children = list_it->second;
  const auto pos = std::find(children.begin(), children.end(), child);
  MOT_CHECK(pos != children.end());
  children.erase(pos);
  if (children.empty()) node_it->second.sdl.erase(list_it);
  journal(durable::JournalRecord::make_sdl_remove(sp, object, child));
}

void ChainTracker::publish(ObjectId object, NodeId proxy) {
  MOT_EXPECTS(proxy < provider_->num_nodes());
  MOT_EXPECTS(!is_published(object));
  MOT_SPAN("publish", object);
  const auto sequence = provider_->upward_sequence(proxy);
  MOT_CHECK(!sequence.empty() && sequence.front().node.node == proxy);

  // The bottom entry is the proxy sentinel: its child points to itself.
  const OverlayNode bottom = sequence.front().node;
  charge_access(bottom, object);
  add_entry(bottom, object, bottom, provider_->special_parent(proxy, 0));

  OverlayNode previous = bottom;
  for (std::size_t i = 1; i < sequence.size(); ++i) {
    const OverlayNode stop = sequence[i].node;
    charge_hop(previous.node, stop.node, object, obs::Ev::kClimbHop,
               stop.level);
    charge_access(stop, object);
    add_entry(stop, object, previous, provider_->special_parent(proxy, i));
    previous = stop;
  }
  proxies_[object] = proxy;
  journal(durable::JournalRecord::make_publish(object, proxy));
}

MoveResult ChainTracker::move(ObjectId object, NodeId new_proxy) {
  MOT_EXPECTS(new_proxy < provider_->num_nodes());
  MOT_EXPECTS(is_published(object));
  const NodeId old_proxy = proxies_[object];
  if (new_proxy == old_proxy) return {};
  MOT_SPAN("move", object);

  const CostWindow window(meter_);
  const auto sequence = provider_->upward_sequence(new_proxy);

  MoveResult result;
  const OverlayNode bottom = sequence.front().node;
  charge_access(bottom, object);
  bool met = false;
  if (auto bottom_state = state_.find(bottom); bottom_state != state_.end()) {
    if (auto dl_it = bottom_state->second.dl.find(object);
        dl_it != bottom_state->second.dl.end()) {
      // The chain already passes through the new proxy (it is an ancestor
      // of the old one, possible in tree structures): splice here — the
      // entry becomes the proxy sentinel — and tear the fragment below.
      MOT_CHECK(dl_it->second.child != bottom);  // to != old proxy
      const OverlayNode first_victim = dl_it->second.child;
      dl_it->second.child = bottom;
      journal(durable::JournalRecord::make_splice(bottom, object, bottom));
      result.peak_level = bottom.level;
      if (obs::tracing()) {
        obs::emit({.type = obs::Ev::kSplice,
                   .object = object,
                   .from = bottom.node,
                   .level = bottom.level});
      }
      delete_fragment(bottom, first_victim, object);
      met = true;
    }
  }
  if (!met) {
    add_entry(bottom, object, bottom,
              provider_->special_parent(new_proxy, 0));
  }
  OverlayNode previous = bottom;
  for (std::size_t i = 1; i < sequence.size() && !met; ++i) {
    const OverlayNode stop = sequence[i].node;
    charge_hop(previous.node, stop.node, object, obs::Ev::kClimbHop,
               stop.level);
    charge_access(stop, object);
    auto node_it = state_.find(stop);
    if (node_it != state_.end()) {
      if (auto dl_it = node_it->second.dl.find(object);
          dl_it != node_it->second.dl.end()) {
        // Meet node w: splice the chain onto the new fragment and erase
        // the detached old fragment below. If the meet entry is the old
        // proxy's sentinel (the object moved to a structural descendant),
        // there is no fragment to tear.
        const OverlayNode first_victim = dl_it->second.child;
        dl_it->second.child = previous;
        journal(durable::JournalRecord::make_splice(stop, object, previous));
        result.peak_level = stop.level;
        if (obs::tracing()) {
          obs::emit({.type = obs::Ev::kSplice,
                     .object = object,
                     .from = stop.node,
                     .level = stop.level});
        }
        if (first_victim != stop) {
          delete_fragment(stop, first_victim, object);
        }
        met = true;
      }
    }
    if (!met) {
      add_entry(stop, object, previous,
                provider_->special_parent(new_proxy, i));
      previous = stop;
    }
  }
  // The root always holds every published object, so the walk must meet.
  MOT_CHECK(met);
  proxies_[object] = new_proxy;
  // kPublish rather than kProxy: in this engine the proxy map is also
  // the physical position map, and kPublish updates both on replay.
  journal(durable::JournalRecord::make_publish(object, new_proxy));
  result.cost = window.cost();
  return result;
}

void ChainTracker::delete_fragment(OverlayNode meet, OverlayNode first_victim,
                                   ObjectId object) {
  NodeId previous_physical = meet.node;
  OverlayNode current = first_victim;
  while (true) {
    charge_hop(previous_physical, current.node, object, obs::Ev::kDeleteHop,
               current.level);
    charge_access(current, object);
    auto node_it = state_.find(current);
    MOT_CHECK(node_it != state_.end());
    auto dl_it = node_it->second.dl.find(object);
    MOT_CHECK(dl_it != node_it->second.dl.end());
    const DlEntry entry = dl_it->second;
    node_it->second.dl.erase(dl_it);
    journal(durable::JournalRecord::make_delete(current, object));
    if (entry.sp) {
      if (options_.charge_special_updates) {
        charge_hop(current.node, entry.sp->node, object, obs::Ev::kSpHop,
                   entry.sp->level);
        charge_access(*entry.sp, object);
      }
      remove_sdl_record(*entry.sp, object, current);
    }
    if (entry.child == current) break;  // reached the old proxy sentinel
    previous_physical = current.node;
    current = entry.child;
  }
}

NodeId ChainTracker::descend(OverlayNode start, ObjectId object) {
  if (options_.shortcut_descent) {
    // A shortcut pointer gives the discovering node the proxy's address:
    // the result message travels the direct distance only.
    OverlayNode current = start;
    while (true) {
      const auto& entry = state_.at(current).dl.at(object);
      if (entry.child == current) break;  // proxy sentinel
      current = entry.child;
    }
    charge_hop(start.node, current.node, object, obs::Ev::kDescendHop,
               start.level);
    return current.node;
  }
  OverlayNode current = start;
  while (true) {
    const auto& entry = state_.at(current).dl.at(object);
    if (entry.child == current) break;  // proxy sentinel
    charge_hop(current.node, entry.child.node, object, obs::Ev::kDescendHop,
               entry.child.level);
    charge_access(entry.child, object);
    current = entry.child;
  }
  return current.node;
}

QueryResult ChainTracker::query(NodeId from, ObjectId object) {
  MOT_EXPECTS(from < provider_->num_nodes());
  MOT_EXPECTS(is_published(object));
  MOT_SPAN("query", object);
  const CostWindow window(meter_);
  const auto sequence = provider_->upward_sequence(from);

  QueryResult result;
  NodeId previous_physical = from;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const OverlayNode stop = sequence[i].node;
    if (i > 0) {
      charge_hop(previous_physical, stop.node, object, obs::Ev::kClimbHop,
                 stop.level);
      previous_physical = stop.node;
    }
    charge_access(stop, object);
    const auto node_it = state_.find(stop);
    if (node_it == state_.end()) continue;
    if (const auto dl_it = node_it->second.dl.find(object);
        dl_it != node_it->second.dl.end()) {
      result.found = true;
      result.found_level = stop.level;
      ++query_stats_.dl_hits;
      result.proxy = descend(stop, object);
      break;
    }
    if (options_.use_special_lists) {
      if (const auto sdl_it = node_it->second.sdl.find(object);
          sdl_it != node_it->second.sdl.end() && !sdl_it->second.empty()) {
        // Jump to the lowest-level special child: it is the chain node
        // closest to the object.
        const auto best = std::min_element(
            sdl_it->second.begin(), sdl_it->second.end(),
            [](const OverlayNode& a, const OverlayNode& b) {
              return a.level < b.level;
            });
        result.found = true;
        result.found_level = stop.level;
        ++query_stats_.sdl_hits;
        charge_hop(stop.node, best->node, object, obs::Ev::kSdlJump,
                   best->level);
        charge_access(*best, object);
        result.proxy = descend(*best, object);
        break;
      }
    }
  }
  // The root stop ends every sequence and holds every object.
  MOT_CHECK(result.found);
  MOT_CHECK(result.proxy == proxies_.at(object));
  result.cost = window.cost();
  return result;
}

NodeId ChainTracker::proxy_of(ObjectId object) const {
  const auto it = proxies_.find(object);
  MOT_EXPECTS(it != proxies_.end());
  return it->second;
}

std::vector<std::size_t> ChainTracker::load_per_node() const {
  std::vector<std::size_t> load(provider_->num_nodes(), 0);
  for (const auto& [owner, node] : state_) {
    for (const auto& [object, entry] : node.dl) {
      load[provider_->delegate(owner, object).storage] += 1;
    }
    for (const auto& [object, children] : node.sdl) {
      load[provider_->delegate(owner, object).storage] += children.size();
    }
  }
  return load;
}

std::size_t ChainTracker::dl_entries(ObjectId object) const {
  std::size_t count = 0;
  for (const auto& [owner, node] : state_) {
    count += node.dl.count(object);
  }
  return count;
}

std::size_t ChainTracker::sdl_entries(ObjectId object) const {
  std::size_t count = 0;
  for (const auto& [owner, node] : state_) {
    const auto it = node.sdl.find(object);
    if (it != node.sdl.end()) count += it->second.size();
  }
  return count;
}

bool ChainTracker::node_has_dl(OverlayNode owner, ObjectId object) const {
  const auto it = state_.find(owner);
  return it != state_.end() && it->second.dl.count(object) != 0;
}

std::size_t ChainTracker::evacuate_node(NodeId node) {
  MOT_EXPECTS(node < provider_->num_nodes());
  MOT_EXPECTS(provider_->root_stop().node != node);
  for (const auto& [object, proxy] : proxies_) {
    (void)object;
    MOT_EXPECTS(proxy != node);  // move objects off the node first
  }

  // Collect the node's overlay roles that hold state.
  std::vector<OverlayNode> roles;
  for (const auto& [owner, state] : state_) {
    (void)state;
    if (owner.node == node) roles.push_back(owner);
  }

  std::size_t evacuated = 0;
  for (const OverlayNode& role : roles) {
    NodeState& state = state_.at(role);
    // 1. Bypass every chain entry hosted here: find the chain parent (the
    //    unique entry pointing at this role) and splice it to our child.
    for (const auto& [object, entry] : state.dl) {
      OverlayNode parent = {0, kInvalidNode};
      bool found_parent = false;
      for (auto& [owner, other] : state_) {
        if (owner == role) continue;
        const auto it = other.dl.find(object);
        if (it != other.dl.end() && it->second.child == role) {
          parent = owner;
          found_parent = true;
          // The parent's repair message travels to the bypassed child.
          it->second.child = entry.child;
          journal(durable::JournalRecord::make_splice(owner, object,
                                                      entry.child));
          charge_hop(owner.node, entry.child.node, object, obs::Ev::kRepairHop,
                     entry.child.level);
          break;
        }
      }
      MOT_CHECK(found_parent);  // a non-root chain entry has a parent
      (void)parent;
      // 2. Drop our SDL registration at our special parent.
      if (entry.sp) {
        charge_hop(role.node, entry.sp->node, object, obs::Ev::kRepairHop,
                   entry.sp->level);
        remove_sdl_record(*entry.sp, object, role);
      }
      ++evacuated;
    }
    // 3. Special-list records hosted here would dangle: clear the back
    //    pointers of the children that registered with us.
    for (const auto& [object, children] : state.sdl) {
      for (const OverlayNode& child : children) {
        auto child_state = state_.find(child);
        MOT_CHECK(child_state != state_.end());
        auto dl_it = child_state->second.dl.find(object);
        MOT_CHECK(dl_it != child_state->second.dl.end());
        MOT_CHECK(dl_it->second.sp.has_value() && *dl_it->second.sp == role);
        dl_it->second.sp.reset();
        journal(durable::JournalRecord::make_sp_clear(child, object));
        charge_hop(role.node, child.node, object, obs::Ev::kRepairHop,
                   child.level);
      }
    }
    state_.erase(role);
    journal(durable::JournalRecord::make_wipe_role(role));
  }
  return evacuated;
}

std::size_t ChainTracker::crash_node(NodeId node) {
  MOT_EXPECTS(node < provider_->num_nodes());
  MOT_EXPECTS(provider_->root_stop().node != node);
  for (const auto& [object, proxy] : proxies_) {
    (void)object;
    MOT_EXPECTS(proxy != node);  // objects sit on surviving sensors
  }

  std::vector<OverlayNode> roles;
  for (const auto& [owner, state] : state_) {
    (void)state;
    if (owner.node == node) roles.push_back(owner);
  }

  std::size_t repaired = 0;
  for (const OverlayNode& role : roles) {
    NodeState& state = state_.at(role);
    for (const auto& [object, entry] : state.dl) {
      bool found_parent = false;
      for (auto& [owner, other] : state_) {
        if (owner == role) continue;
        const auto it = other.dl.find(object);
        if (it != other.dl.end() && it->second.child == role) {
          found_parent = true;
          it->second.child = entry.child;
          journal(durable::JournalRecord::make_splice(owner, object,
                                                      entry.child));
          // The surviving parent pays the repair hop to the bypassed
          // child; the dead node itself sends nothing.
          charge_hop(owner.node, entry.child.node, object, obs::Ev::kRepairHop,
                     entry.child.level);
          break;
        }
      }
      MOT_CHECK(found_parent);  // a non-root chain entry has a parent
      // The special parent clears the dead child's record locally when
      // the failure is announced — no message from the dead node.
      if (entry.sp) remove_sdl_record(*entry.sp, object, role);
      ++repaired;
    }
    for (const auto& [object, children] : state.sdl) {
      for (const OverlayNode& child : children) {
        auto child_state = state_.find(child);
        MOT_CHECK(child_state != state_.end());
        auto dl_it = child_state->second.dl.find(object);
        MOT_CHECK(dl_it != child_state->second.dl.end());
        MOT_CHECK(dl_it->second.sp.has_value() && *dl_it->second.sp == role);
        dl_it->second.sp.reset();
        journal(durable::JournalRecord::make_sp_clear(child, object));
      }
    }
    state_.erase(role);
    journal(durable::JournalRecord::make_wipe_role(role));
  }
  return repaired;
}

durable::StateImage ChainTracker::export_durable_image() const {
  durable::StateImage image;
  image.roles.reserve(state_.size());
  for (const auto& [owner, node] : state_) {
    durable::RoleImage role;
    role.role = owner;
    for (const auto& [object, entry] : node.dl) {
      role.dl.push_back({object, entry.child, entry.sp});
    }
    for (const auto& [object, children] : node.sdl) {
      role.sdl.push_back({object, children});
    }
    image.roles.push_back(std::move(role));
  }
  for (const auto& [object, proxy] : proxies_) {
    image.proxies.emplace_back(object, proxy);
  }
  // The FlatMap / hash-map iteration order above depends on insertion
  // history, which is not observable state.
  image.canonicalize();
  image.physical = image.proxies;  // sequential engine: no in-flight moves
  return image;
}

void ChainTracker::restore_durable_image(const durable::StateImage& image) {
  state_.clear();
  proxies_.clear();
  for (const durable::RoleImage& role : image.roles) {
    NodeState& node = state_[role.role];
    for (const auto& entry : role.dl) {
      node.dl.emplace(entry.object, DlEntry{entry.child, entry.sp});
    }
    for (const auto& entry : role.sdl) {
      node.sdl.emplace(entry.object, entry.children);
    }
  }
  for (const auto& [object, proxy] : image.proxies) {
    proxies_[object] = proxy;
  }
}

void ChainTracker::validate(ObjectId object) const {
  MOT_EXPECTS(is_published(object));
  // 1. Chain: root -> proxy via child pointers, every hop present.
  const OverlayNode root = provider_->root_stop();
  OverlayNode current = root;
  std::size_t chain_length = 0;
  const std::size_t limit = dl_entries(object) + 1;
  while (true) {
    MOT_CHECK(chain_length < limit);  // no cycles
    const auto node_it = state_.find(current);
    MOT_CHECK(node_it != state_.end());
    const auto dl_it = node_it->second.dl.find(object);
    MOT_CHECK(dl_it != node_it->second.dl.end());
    ++chain_length;
    if (dl_it->second.child == current) {  // proxy sentinel
      MOT_CHECK(current.node == proxies_.at(object));
      break;
    }
    current = dl_it->second.child;
  }
  // 2. No orphan entries: every DL entry for the object is on the chain.
  MOT_CHECK(chain_length == dl_entries(object));
  // 3. DL <-> SDL cross-references agree.
  std::size_t sp_links = 0;
  for (const auto& [owner, node] : state_) {
    const auto dl_it = node.dl.find(object);
    if (dl_it != node.dl.end() && dl_it->second.sp) {
      ++sp_links;
      const auto sp_it = state_.find(*dl_it->second.sp);
      MOT_CHECK(sp_it != state_.end());
      const auto sdl_it = sp_it->second.sdl.find(object);
      MOT_CHECK(sdl_it != sp_it->second.sdl.end());
      MOT_CHECK(std::find(sdl_it->second.begin(), sdl_it->second.end(),
                          owner) != sdl_it->second.end());
    }
  }
  MOT_CHECK(sp_links == sdl_entries(object));
}

void ChainTracker::validate_all() const {
  for (const auto& [object, proxy] : proxies_) {
    (void)proxy;
    validate(object);
  }
}

}  // namespace mot
