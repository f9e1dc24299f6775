// Small filesystem helpers shared by the result cache and the CLI.
//
// All paths are plain strings (UTF-8 on POSIX); errors surface as
// std::runtime_error except where a missing file is an expected outcome
// (read_file returns nullopt so a cache miss is not an exception).
#pragma once

/// \file
/// \brief Small filesystem helpers: whole-file IO with atomic writes,
/// directory listing, moves and removal.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hxmesh {

/// Whole-file read. nullopt when the file does not exist or cannot be
/// opened; throws only on a read error after a successful open.
std::optional<std::string> read_file(const std::string& path);

/// Writes `content` to `path` atomically: the bytes land in `path + ".tmp"`
/// first and are renamed into place, so concurrent readers see either the
/// old file or the complete new one, never a torn write. Creates parent
/// directories as needed.
void write_file_atomic(const std::string& path, const std::string& content);

/// mkdir -p. No-op when the directory already exists.
void ensure_dir(const std::string& path);

/// Regular files directly inside `dir` (no recursion), sorted by name.
/// Missing directory yields an empty list.
std::vector<std::string> list_files(const std::string& dir);

/// Size of a regular file in bytes; 0 when missing.
std::uint64_t file_size(const std::string& path);

/// Removes one file if present; returns whether something was removed.
bool remove_file(const std::string& path);

/// Moves a file, creating the destination's parent directories as needed;
/// returns whether the rename succeeded. The result cache uses this to
/// quarantine corrupt entries instead of deleting the evidence.
bool rename_file(const std::string& from, const std::string& to);

/// Removes a directory tree if present (rm -rf); returns the number of
/// files and directories removed (0 when missing).
std::uint64_t remove_tree(const std::string& path);

}  // namespace hxmesh
