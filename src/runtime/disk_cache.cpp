#include "runtime/disk_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#ifdef _WIN32
#include <process.h>
#define adc_getpid _getpid
#else
#include <unistd.h>
#define adc_getpid getpid
#endif

#include "runtime/fault.hpp"

namespace fs = std::filesystem;

namespace adc {

namespace {

constexpr char kMagic[4] = {'A', 'D', 'C', 'K'};
constexpr std::size_t kHeaderSize = 24;
constexpr const char* kSuffix = ".adcstage";

void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

// Reads a whole file; empty optional on any error.
std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return data;
}

// Validates a raw file image; returns the payload or sets `defect`.
std::optional<std::string> decode(const std::string& raw, std::string* defect) {
  if (raw.size() < kHeaderSize) {
    if (defect) *defect = "short file";
    return std::nullopt;
  }
  if (std::memcmp(raw.data(), kMagic, 4) != 0) {
    if (defect) *defect = "bad magic";
    return std::nullopt;
  }
  std::uint32_t version = get_u32(raw.data() + 4);
  if (version != DiskCache::kFormatVersion) {
    if (defect) *defect = "version mismatch";
    return std::nullopt;
  }
  std::uint64_t len = get_u64(raw.data() + 8);
  if (raw.size() != kHeaderSize + len) {
    if (defect) *defect = "length mismatch";
    return std::nullopt;
  }
  std::string payload = raw.substr(kHeaderSize);
  if (DiskCache::checksum(payload) != get_u64(raw.data() + 16)) {
    if (defect) *defect = "checksum mismatch";
    return std::nullopt;
  }
  return payload;
}

}  // namespace

std::uint64_t DiskCache::checksum(const std::string& payload) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (unsigned char c : payload) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

DiskCache::DiskCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    dir_.clear();  // unusable directory: run disabled, not wrong
    return;
  }
  // The one directory scan: every entry's size, oldest mtime first.
  struct File {
    std::string key;
    fs::file_time_type mtime;
    std::uint64_t size;
  };
  std::vector<File> files;
  for (const auto& ent : fs::directory_iterator(dir_, ec)) {
    if (ent.path().extension() != kSuffix) continue;
    std::error_code size_ec, time_ec;
    const std::uint64_t size = fs::file_size(ent.path(), size_ec);
    const fs::file_time_type mtime = fs::last_write_time(ent.path(), time_ec);
    if (!size_ec && !time_ec) files.push_back({ent.path().stem().string(), mtime, size});
  }
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.mtime < b.mtime; });
  for (const File& f : files) track(f.key, f.size);
}

void DiskCache::track(const std::string& key, std::uint64_t bytes) {
  auto [it, inserted] = index_.try_emplace(key);
  if (inserted) {
    it->second.lru = lru_.insert(lru_.end(), key);
  } else {
    total_bytes_ -= it->second.bytes;
    lru_.splice(lru_.end(), lru_, it->second.lru);
  }
  it->second.bytes = bytes;
  total_bytes_ += bytes;
}

void DiskCache::untrack(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  total_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  index_.erase(it);
}

std::string DiskCache::path_for(const std::string& key) const {
  return (fs::path(dir_) / (key + kSuffix)).string();
}

std::optional<std::string> DiskCache::get(const std::string& key) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  fault().maybe_fail_or_stall("disk.get", key);
  fs::path path = path_for(key);
  auto raw = read_file(path);
  if (!raw) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::string defect;
  auto payload = decode(*raw, &defect);
  if (!payload) {
    // Defective entry: evict so the next run recomputes and heals it.
    std::error_code ec;
    fs::remove(path, ec);
    untrack(key);
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  // Refresh recency, in the index and (for the next open) the file mtime.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  track(key, raw->size());
  ++stats_.hits;
  return payload;
}

bool DiskCache::put(const std::string& key, const std::string& payload) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  try {
    fault().maybe_fail_or_stall("disk.put", key);

    std::string image;
    image.reserve(kHeaderSize + payload.size());
    image.append(kMagic, 4);
    put_u32(image, kFormatVersion);
    put_u64(image, payload.size());
    put_u64(image, checksum(payload));
    image += payload;

    // Simulated torn writes: the injector mangles the bytes we are about
    // to persist, exactly what a crash mid-write leaves behind.
    fault().mutate_payload("disk.put.payload", image, key);

    fs::path final_path = path_for(key);
    fs::path tmp_path = final_path;
    tmp_path += ".tmp." + std::to_string(adc_getpid());

    {
      std::FILE* f = std::fopen(tmp_path.string().c_str(), "wb");
      if (!f) throw std::runtime_error("open failed");
      std::size_t wrote = image.empty()
                              ? 0
                              : std::fwrite(image.data(), 1, image.size(), f);
      int flush_rc = std::fflush(f);
#ifndef _WIN32
      // fsync before rename: the atomic commit is only atomic if the
      // payload bytes are durable first.
      if (fsync(fileno(f)) != 0) flush_rc = -1;
#endif
      std::fclose(f);
      if (wrote != image.size() || flush_rc != 0) {
        std::error_code ec;
        fs::remove(tmp_path, ec);
        throw std::runtime_error("write failed");
      }
    }

    // Crash window: `drop` leaves the temp file behind and skips the
    // rename, modelling a process killed between write and commit.
    if (fault().check("disk.put.commit", key) == FaultAction::kDrop) {
      ++stats_.put_errors;
      return false;
    }

    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
      fs::remove(tmp_path, ec);
      throw std::runtime_error("rename failed");
    }
    ++stats_.puts;
    track(key, image.size());
    evict_to_budget();
    return true;
  } catch (const std::exception&) {
    ++stats_.put_errors;
    return false;
  }
}

bool DiskCache::contains(const std::string& key) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  return fs::exists(path_for(key), ec);
}

std::uint64_t DiskCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

void DiskCache::evict_to_budget() {
  if (max_bytes_ == 0) return;
  while (total_bytes_ > max_bytes_ && !lru_.empty()) {
    const std::string key = lru_.front();
    std::error_code ec;
    // An entry another process already removed just leaves the index.
    if (fs::remove(path_for(key), ec)) ++stats_.evictions;
    untrack(key);
  }
}

DiskCache::Stats DiskCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<DiskCache::ScanEntry> DiskCache::scan(const std::string& dir) {
  std::vector<ScanEntry> out;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& ent : fs::directory_iterator(dir, ec))
    if (ent.path().extension() == kSuffix) paths.push_back(ent.path());
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    ScanEntry e;
    e.key = p.stem().string();
    auto raw = read_file(p);
    if (!raw) {
      e.defect = "unreadable";
    } else {
      auto payload = decode(*raw, &e.defect);
      if (payload) {
        e.valid = true;
        e.payload_bytes = payload->size();
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace adc
