#include "core/fsio.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace fs = std::filesystem;

namespace hxmesh {

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string content;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
    content.append(buf, got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw std::runtime_error("read_file: read error on " + path);
  return content;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const fs::path target(path);
  if (target.has_parent_path()) ensure_dir(target.parent_path().string());
  // Unique temp name per write: concurrent writers of the same path (two
  // duplicate grid cells, or two processes sharing a cache dir) must not
  // interleave into one temp file — last rename simply wins.
  static std::atomic<unsigned> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("write_file_atomic: cannot open " + tmp);
  const std::size_t wrote = std::fwrite(content.data(), 1, content.size(), f);
  const bool failed = wrote != content.size() || std::fclose(f) != 0;
  if (failed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: write error on " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: rename to " + path +
                             " failed: " + ec.message());
  }
}

void ensure_dir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec)
    throw std::runtime_error("ensure_dir: cannot create " + path + ": " +
                             ec.message());
}

std::vector<std::string> list_files(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it)
    if (entry.is_regular_file()) out.push_back(entry.path().string());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec) && !ec;
}

bool rename_file(const std::string& from, const std::string& to) {
  const fs::path target(to);
  std::error_code ec;
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  fs::rename(from, target, ec);
  return !ec;
}

std::uint64_t remove_tree(const std::string& path) {
  std::error_code ec;
  const auto removed = fs::remove_all(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(removed);
}

}  // namespace hxmesh
