#pragma once

// FNV-1a (64-bit) over output bytes: the serving-layer goldens pin whole
// reports, expositions and trace directories to one constant each, so any
// byte that moves fails the test (print the hash to re-pin on purpose).

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace poi360::golden {

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Hash of every regular file under `dir`: names and contents, name-sorted.
inline std::uint64_t fnv1a_dir(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t hash = fnv1a("");
  for (const auto& path : files) {
    hash = fnv1a(path.filename().string(), hash);
    std::ifstream in(path, std::ios::binary);
    const std::string body{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    hash = fnv1a(body, hash);
  }
  return hash;
}

}  // namespace poi360::golden
