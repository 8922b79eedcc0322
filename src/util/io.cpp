#include "util/io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define OBD_POSIX_IO 1
#endif

namespace obd::util {
namespace {

std::string errno_string(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

#ifdef OBD_POSIX_IO

/// write(2) until done or error; short writes are retried.
bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

#endif  // OBD_POSIX_IO

}  // namespace

bool write_file_atomic(const std::string& path, std::string_view data,
                       std::string* err, const AtomicWriteHooks* hooks) {
  const std::string tmp = path + ".tmp";
#ifdef OBD_POSIX_IO
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (err) *err = errno_string("cannot create", tmp);
    return false;
  }
  // Two-chunk write so the mid-write crash hook fires with a genuinely torn
  // temp file on disk.
  const std::size_t half = hooks && hooks->mid_write ? data.size() / 2 : 0;
  bool io_ok = write_all(fd, data.data(), half ? half : data.size());
  if (io_ok && half) {
    hooks->mid_write(half, data.size());
    io_ok = write_all(fd, data.data() + half, data.size() - half);
  }
  if (io_ok && ::fsync(fd) != 0) io_ok = false;
  if (::close(fd) != 0) io_ok = false;
  if (!io_ok) {
    if (err) *err = errno_string("cannot write", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (hooks && hooks->before_rename) hooks->before_rename();
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err) *err = errno_string("cannot rename", tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
#else
  // Non-POSIX fallback: still temp + rename, without the fsync durability.
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    if (err) *err = errno_string("cannot create", tmp);
    return false;
  }
  const bool wrote =
      std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    if (err) *err = errno_string("cannot write", tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (hooks && hooks->before_rename) hooks->before_rename();
  std::remove(path.c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err) *err = errno_string("cannot rename", tmp);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
#endif
}

bool read_file(const std::string& path, std::string* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err) *err = errno_string("cannot open", path);
    return false;
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    out->append(buf, n);
    if (n < sizeof buf) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && err) *err = errno_string("cannot read", path);
  return ok;
}

}  // namespace obd::util
