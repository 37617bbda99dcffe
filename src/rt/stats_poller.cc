#include "rt/stats_poller.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"

#if defined(__unix__) || defined(__APPLE__)
#define NETLOCK_HAVE_UNIX_SOCKETS 1
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define NETLOCK_HAVE_UNIX_SOCKETS 0
#endif

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace netlock::rt {

RtStatsPoller::RtStatsPoller(Options options)
    : options_(options),
      store_(static_cast<SimTime>(options.interval.count())) {
  NETLOCK_CHECK(options_.interval.count() > 0);
}

RtStatsPoller::~RtStatsPoller() { Stop(); }

void RtStatsPoller::Watch(const std::string& name,
                          const MetricCounter& counter) {
  NETLOCK_CHECK(!started_);
  store_.Watch(name, counter);
}

void RtStatsPoller::WatchGauge(const std::string& name,
                               const MetricGauge& gauge) {
  NETLOCK_CHECK(!started_);
  store_.WatchGauge(name, gauge);
}

void RtStatsPoller::WatchP99(const std::string& name,
                             const MetricHistogram& histogram) {
  NETLOCK_CHECK(!started_);
  store_.WatchP99(name, histogram);
}

void RtStatsPoller::SetSnapshotProvider(SnapshotProvider provider) {
  NETLOCK_CHECK(!started_);
  provider_ = std::move(provider);
}

void RtStatsPoller::Start(SimTime start_time) {
  NETLOCK_CHECK(!started_);
  started_ = true;
  store_.Begin(start_time);
  OpenSocket();
  stop_ = false;
  thread_ = std::thread([this]() { ThreadMain(); });
}

void RtStatsPoller::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // Already stopped (Stop then destructor).
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  CloseSocket();
}

void RtStatsPoller::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, options_.interval, [this]() { return stop_; })) {
      break;
    }
    lock.unlock();
    store_.Tick();
    polls_.fetch_add(1, std::memory_order_release);
    if (listen_fd_ >= 0) {
      ServeClients(provider_ ? provider_() : std::string());
    }
    lock.lock();
  }
}

void RtStatsPoller::OpenSocket() {
#if NETLOCK_HAVE_UNIX_SOCKETS
  if (options_.socket_path.empty()) return;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "stats_poller: socket path too long: %s\n",
                 options_.socket_path.c_str());
    return;
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("stats_poller: socket");
    return;
  }
  ::unlink(options_.socket_path.c_str());  // Stale socket from a prior run.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 4) < 0) {
    std::perror("stats_poller: bind/listen");
    ::close(fd);
    return;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  listen_fd_ = fd;
#endif
}

void RtStatsPoller::ServeClients(const std::string& frame) {
#if NETLOCK_HAVE_UNIX_SOCKETS
  // Accept whoever connected since the last tick.
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    client_fds_.push_back(fd);
  }
  if (frame.empty()) return;
  for (std::size_t i = 0; i < client_fds_.size();) {
    const ssize_t n = ::send(client_fds_[i], frame.data(), frame.size(),
                             MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Stalled reader: skip this frame rather than block the tick.
      ++i;
      continue;
    }
    if (n < 0) {
      ::close(client_fds_[i]);
      client_fds_[i] = client_fds_.back();
      client_fds_.pop_back();
      continue;
    }
    ++i;
  }
#else
  (void)frame;
#endif
}

void RtStatsPoller::CloseSocket() {
#if NETLOCK_HAVE_UNIX_SOCKETS
  for (const int fd : client_fds_) ::close(fd);
  client_fds_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
#endif
}

}  // namespace netlock::rt
