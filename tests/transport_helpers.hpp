// Test helpers for driving p transport endpoints from one process: one
// thread per rank, and a socket mesh whose handshakes run concurrently.
#pragma once

#include <unistd.h>

#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace embsp::sim {

/// Runs `body(rank, transport)` on one thread per endpoint and rethrows the
/// first failure.
inline void run_ranks(
    std::vector<std::unique_ptr<net::Transport>>& eps,
    const std::function<void(std::uint32_t, net::Transport&)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(eps.size());
  for (std::uint32_t r = 0; r < eps.size(); ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r, *eps[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

inline std::string unix_prefix(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("embsp_net_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

/// Builds a p-endpoint socket mesh by running the handshakes concurrently
/// (each constructor blocks until the full mesh is up).
inline std::vector<std::unique_ptr<net::Transport>> make_socket_group(
    std::uint32_t p, const std::string& tag) {
  std::vector<std::unique_ptr<net::Transport>> eps(p);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(p);
  for (std::uint32_t r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      try {
        net::SocketConfig cfg;
        cfg.address = unix_prefix(tag);
        cfg.rank = r;
        cfg.peers = p;
        eps[r] = net::make_socket_transport(cfg);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return eps;
}

}  // namespace embsp::sim
