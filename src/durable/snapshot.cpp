#include "durable/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <limits>

#include "durable/version.hpp"
#include "util/log.hpp"
#include "wire/codec.hpp"

namespace mot::durable {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x53544f4du;  // 'MOTS' LE

// Ids 1 and 3 held the node count and the hierarchy CSR in older files,
// which may still be on disk: never reuse them.
enum Field : std::uint32_t {
  kFieldFingerprint = 2,
  kFieldImage = 4,
};

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::span<const std::uint8_t> data,
                    std::uint64_t hash = kFnvBasis) {
  for (const std::uint8_t byte : data) {
    hash = (hash ^ byte) * kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ (value & 0xffu)) * kFnvPrime;
    value >>= 8;
  }
  return hash;
}

// A count prefix can promise at most one element per remaining byte;
// anything larger is corruption, not a big snapshot.
bool plausible_count(const wire::ByteReader& reader, std::uint64_t count) {
  return count <= reader.remaining();
}

void encode_overlay(wire::ByteWriter& writer, const OverlayNode& node) {
  writer.svarint(node.level);
  writer.varint(node.node);
}

OverlayNode decode_overlay(wire::ByteReader& reader) {
  OverlayNode node;
  node.level = static_cast<int>(reader.svarint());
  node.node = static_cast<NodeId>(reader.varint());
  return node;
}

std::vector<std::uint8_t> encode_image(const StateImage& image) {
  wire::ByteWriter writer;
  writer.varint(image.roles.size());
  for (const RoleImage& role : image.roles) {
    encode_overlay(writer, role.role);
    writer.varint(role.dl.size());
    for (const auto& entry : role.dl) {
      writer.varint(entry.object);
      encode_overlay(writer, entry.child);
      writer.varint(entry.sp.has_value() ? 1 : 0);
      if (entry.sp.has_value()) encode_overlay(writer, *entry.sp);
    }
    writer.varint(role.sdl.size());
    for (const auto& entry : role.sdl) {
      writer.varint(entry.object);
      writer.varint(entry.children.size());
      for (const auto& child : entry.children) {
        encode_overlay(writer, child);
      }
    }
  }
  writer.varint(image.proxies.size());
  for (const auto& [object, node] : image.proxies) {
    writer.varint(object);
    writer.varint(node);
  }
  writer.varint(image.physical.size());
  for (const auto& [object, node] : image.physical) {
    writer.varint(object);
    writer.varint(node);
  }
  return writer.take();
}

bool decode_image(std::span<const std::uint8_t> bytes, StateImage* image) {
  wire::ByteReader reader(bytes);
  const std::uint64_t num_roles = reader.varint();
  if (!reader.ok() || !plausible_count(reader, num_roles)) return false;
  image->roles.resize(static_cast<std::size_t>(num_roles));
  for (RoleImage& role : image->roles) {
    role.role = decode_overlay(reader);
    const std::uint64_t num_dl = reader.varint();
    if (!reader.ok() || !plausible_count(reader, num_dl)) return false;
    role.dl.resize(static_cast<std::size_t>(num_dl));
    for (auto& entry : role.dl) {
      entry.object = static_cast<std::uint32_t>(reader.varint());
      entry.child = decode_overlay(reader);
      if (reader.varint() != 0) entry.sp = decode_overlay(reader);
    }
    const std::uint64_t num_sdl = reader.varint();
    if (!reader.ok() || !plausible_count(reader, num_sdl)) return false;
    role.sdl.resize(static_cast<std::size_t>(num_sdl));
    for (auto& entry : role.sdl) {
      entry.object = static_cast<std::uint32_t>(reader.varint());
      const std::uint64_t num_children = reader.varint();
      if (!reader.ok() || !plausible_count(reader, num_children)) {
        return false;
      }
      entry.children.resize(static_cast<std::size_t>(num_children));
      for (auto& child : entry.children) child = decode_overlay(reader);
    }
  }
  const std::uint64_t num_proxies = reader.varint();
  if (!reader.ok() || !plausible_count(reader, num_proxies)) return false;
  image->proxies.resize(static_cast<std::size_t>(num_proxies));
  for (auto& [object, node] : image->proxies) {
    object = static_cast<std::uint32_t>(reader.varint());
    node = static_cast<NodeId>(reader.varint());
  }
  const std::uint64_t num_physical = reader.varint();
  if (!reader.ok() || !plausible_count(reader, num_physical)) return false;
  image->physical.resize(static_cast<std::size_t>(num_physical));
  for (auto& [object, node] : image->physical) {
    object = static_cast<std::uint32_t>(reader.varint());
    node = static_cast<NodeId>(reader.varint());
  }
  return reader.ok() && reader.at_end();
}

void put_u32(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value);
  out[1] = static_cast<std::uint8_t>(value >> 8);
  out[2] = static_cast<std::uint8_t>(value >> 16);
  out[3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

const char* restore_error_name(RestoreError error) {
  switch (error) {
    case RestoreError::kNone: return "none";
    case RestoreError::kNoSnapshot: return "no_snapshot";
    case RestoreError::kIoError: return "io_error";
    case RestoreError::kBadMagic: return "bad_magic";
    case RestoreError::kBadVersion: return "bad_version";
    case RestoreError::kCrcMismatch: return "crc_mismatch";
    case RestoreError::kBadRecord: return "bad_record";
    case RestoreError::kWorldMismatch: return "world_mismatch";
    case RestoreError::kBadSnapshot: return "bad_snapshot";
    case RestoreError::kReplayFailed: return "replay_failed";
    case RestoreError::kJournalError: return "journal_error";
  }
  return "?";
}

void StateImage::canonicalize() {
  const auto by_object = [](const auto& a, const auto& b) {
    return a.object < b.object;
  };
  for (RoleImage& role : roles) {
    std::erase_if(role.sdl, [](const RoleImage::SdlEntry& entry) {
      return entry.children.empty();
    });
    std::sort(role.dl.begin(), role.dl.end(), by_object);
    std::sort(role.sdl.begin(), role.sdl.end(), by_object);
  }
  std::erase_if(roles, [](const RoleImage& role) {
    return role.dl.empty() && role.sdl.empty();
  });
  std::sort(roles.begin(), roles.end(),
            [](const RoleImage& a, const RoleImage& b) {
              return std::pair(a.role.node, a.role.level) <
                     std::pair(b.role.node, b.role.level);
            });
  std::sort(proxies.begin(), proxies.end());
  std::sort(physical.begin(), physical.end());
}

std::uint64_t StateImage::digest() const {
  return fnv1a(encode_image(*this));
}

std::uint64_t world_fingerprint(const Graph& graph,
                                const DoublingHierarchy& hierarchy) {
  std::uint64_t hash = fnv1a_u64(graph.num_nodes(), kFnvBasis);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto neighbors = graph.neighbors(u);
    hash = fnv1a_u64(neighbors.size(), hash);
    for (const Edge& edge : neighbors) {
      hash = fnv1a_u64(edge.to, hash);
      hash = fnv1a_u64(std::bit_cast<std::uint64_t>(edge.weight), hash);
    }
  }
  const auto hash_all = [&hash](const auto& values) {
    hash = fnv1a_u64(values.size(), hash);
    for (const auto value : values) hash = fnv1a_u64(value, hash);
  };
  const DoublingHierarchy::State state = hierarchy.export_state();
  hash = fnv1a_u64(state.num_nodes, hash);
  hash = fnv1a_u64(state.total_mis_rounds, hash);
  hash = fnv1a_u64(state.levels.size(), hash);
  for (const DoublingHierarchy::LevelState& level : state.levels) {
    hash_all(level.member_list);
    hash_all(level.parent_offsets);
    hash_all(level.parent_data);
    hash_all(level.default_parents);
  }
  return hash;
}

MutableState::MutableState(const StateImage& image) {
  for (const RoleImage& role : image.roles) {
    Role& out = roles_[{role.role.node, role.role.level}];
    for (const auto& entry : role.dl) {
      out.dl.emplace(entry.object, Entry{entry.child, entry.sp});
    }
    for (const auto& entry : role.sdl) {
      out.sdl.emplace(entry.object, entry.children);
    }
  }
  for (const auto& [object, node] : image.proxies) proxies_[object] = node;
  for (const auto& [object, node] : image.physical) physical_[object] = node;
}

bool MutableState::apply(const JournalRecord& record) {
  const std::pair<NodeId, int> key{record.role.node, record.role.level};
  switch (record.op) {
    case JournalOp::kPublish:
      proxies_[record.object] = record.node;
      physical_[record.object] = record.node;
      return true;
    case JournalOp::kProxy:
      proxies_[record.object] = record.node;
      return true;
    case JournalOp::kPhysical:
      physical_[record.object] = record.node;
      return true;
    case JournalOp::kInsert: {
      Role& role = roles_[key];
      return role.dl.emplace(record.object, Entry{record.child, record.sp})
          .second;
    }
    case JournalOp::kDelete: {
      const auto role_it = roles_.find(key);
      if (role_it == roles_.end()) return false;
      return role_it->second.dl.erase(record.object) == 1;
    }
    case JournalOp::kSdlAdd:
      roles_[key].sdl[record.object].push_back(record.child);
      return true;
    case JournalOp::kSdlRemove: {
      const auto role_it = roles_.find(key);
      if (role_it == roles_.end()) return false;
      const auto sdl_it = role_it->second.sdl.find(record.object);
      if (sdl_it == role_it->second.sdl.end()) return false;
      auto& children = sdl_it->second;
      const auto child_it =
          std::find(children.begin(), children.end(), record.child);
      if (child_it == children.end()) return false;
      children.erase(child_it);
      if (children.empty()) role_it->second.sdl.erase(sdl_it);
      return true;
    }
    case JournalOp::kSplice: {
      const auto role_it = roles_.find(key);
      if (role_it == roles_.end()) return false;
      const auto dl_it = role_it->second.dl.find(record.object);
      if (dl_it == role_it->second.dl.end()) return false;
      dl_it->second.child = record.child;
      return true;
    }
    case JournalOp::kSpClear: {
      const auto role_it = roles_.find(key);
      if (role_it == roles_.end()) return false;
      const auto dl_it = role_it->second.dl.find(record.object);
      if (dl_it == role_it->second.dl.end()) return false;
      dl_it->second.sp.reset();
      return true;
    }
    case JournalOp::kWipeObject:
      for (auto& [role_key, role] : roles_) {
        role.dl.erase(record.object);
        role.sdl.erase(record.object);
      }
      return true;
    case JournalOp::kWipeRole:
      roles_.erase(key);
      return true;
    case JournalOp::kWipeNode: {
      auto it = roles_.lower_bound(
          {record.node, std::numeric_limits<int>::min()});
      while (it != roles_.end() && it->first.first == record.node) {
        it = roles_.erase(it);
      }
      return true;
    }
  }
  return false;
}

StateImage MutableState::to_image() const {
  StateImage image;
  for (const auto& [key, role] : roles_) {
    RoleImage out;
    out.role = OverlayNode{key.second, key.first};
    for (const auto& [object, entry] : role.dl) {
      out.dl.push_back({object, entry.child, entry.sp});
    }
    for (const auto& [object, children] : role.sdl) {
      out.sdl.push_back({object, children});
    }
    image.roles.push_back(std::move(out));
  }
  for (const auto& [object, node] : proxies_) {
    image.proxies.emplace_back(object, node);
  }
  for (const auto& [object, node] : physical_) {
    image.physical.emplace_back(object, node);
  }
  // The maps are already in canonical order; this drops the empty roles
  // and SDL entries that wipes and removals leave behind.
  image.canonicalize();
  return image;
}

std::vector<std::uint8_t> encode_snapshot(std::uint64_t fingerprint,
                                          const StateImage& image) {
  wire::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(kSnapshotFormatVersion));
  payload.field_fixed64(kFieldFingerprint, fingerprint);
  payload.field_bytes(kFieldImage, encode_image(image));

  std::vector<std::uint8_t> out(8 + payload.size());
  put_u32(out.data(), kSnapshotMagic);
  put_u32(out.data() + 4, crc32(payload.data()));
  std::copy(payload.data().begin(), payload.data().end(), out.begin() + 8);
  return out;
}

SnapshotDecodeResult decode_snapshot(std::span<const std::uint8_t> bytes) {
  SnapshotDecodeResult result;
  if (bytes.size() < 9) {  // magic + crc + at least the version byte
    result.error = RestoreError::kBadMagic;
    return result;
  }
  if (get_u32(bytes.data()) != kSnapshotMagic) {
    result.error = RestoreError::kBadMagic;
    return result;
  }
  const std::span<const std::uint8_t> payload = bytes.subspan(8);
  if (crc32(payload) != get_u32(bytes.data() + 4)) {
    result.error = RestoreError::kCrcMismatch;
    return result;
  }
  wire::ByteReader reader(payload);
  const unsigned version = reader.u8();
  if (version < kSnapshotFormatFloor || version > kSnapshotFormatVersion) {
    result.error = RestoreError::kBadVersion;
    return result;
  }
  bool have_fingerprint = false, have_image = false;
  std::uint32_t field_id = 0;
  wire::WireType type{};
  while (reader.next_field(&field_id, &type)) {
    switch (field_id) {
      case kFieldFingerprint:
        result.fingerprint = reader.fixed64();
        have_fingerprint = true;
        break;
      case kFieldImage: {
        const auto section = reader.length_delimited();
        if (!reader.ok()) break;
        if (!decode_image(section, &result.image)) {
          result.error = RestoreError::kBadRecord;
          return result;
        }
        have_image = true;
        break;
      }
      default:
        reader.skip(type);  // retired field, or one from a newer writer
        break;
    }
  }
  if (!reader.ok() || !have_fingerprint || !have_image) {
    result.error = RestoreError::kBadRecord;
    return result;
  }
  return result;
}

bool write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    MOT_LOG_WARN("snapshot: open(%s) failed: errno=%d", tmp.c_str(), errno);
    return false;
  }
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Best-effort directory fsync so the rename itself is durable.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

SnapshotDecodeResult read_snapshot_file(const std::string& path) {
  SnapshotDecodeResult result;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    result.error = errno == ENOENT ? RestoreError::kNoSnapshot
                                   : RestoreError::kIoError;
    return result;
  }
  std::vector<std::uint8_t> data;
  std::array<std::uint8_t, 65536> chunk;
  for (;;) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      result.error = RestoreError::kIoError;
      return result;
    }
    if (n == 0) break;
    data.insert(data.end(), chunk.data(), chunk.data() + n);
  }
  ::close(fd);
  return decode_snapshot(data);
}

}  // namespace mot::durable
