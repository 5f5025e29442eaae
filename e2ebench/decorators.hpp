// Timing decorators over the public layer interfaces: em::Backend,
// net::Transport and the bsp::Program concept.  Each forwards every call
// unchanged (same arguments, same order, same bytes) and records one
// trace::Span around it, so a traced run executes exactly the program an
// untraced run does — tests/parity_test.cpp holds them to that.
#pragma once

#include <memory>
#include <span>

#include "bsp/program.hpp"
#include "em/backend.hpp"
#include "net/transport.hpp"
#include "trace.hpp"

namespace e2ebench {

/// Times read/write/read_vec/write_vec/flush of one drive.  The vectored
/// calls forward to the wrapped backend's own read_vec/write_vec, so a
/// coalesced run stays one preadv/pwritev.
class TimedBackend final : public embsp::em::Backend {
 public:
  explicit TimedBackend(std::unique_ptr<embsp::em::Backend> inner)
      : inner_(std::move(inner)) {}

  void read(std::uint64_t offset, std::span<std::byte> dst) override {
    trace::Span span(trace::Kind::em_read, dst.size());
    inner_->read(offset, dst);
  }
  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    trace::Span span(trace::Kind::em_write, src.size());
    inner_->write(offset, src);
  }
  void read_vec(std::uint64_t offset,
                std::span<const std::span<std::byte>> dsts) override {
    trace::Span span(trace::Kind::em_read, total_bytes(dsts));
    inner_->read_vec(offset, dsts);
  }
  void write_vec(std::uint64_t offset,
                 std::span<const std::span<const std::byte>> srcs) override {
    trace::Span span(trace::Kind::em_write, total_bytes(srcs));
    inner_->write_vec(offset, srcs);
  }
  void flush() override {
    trace::Span span(trace::Kind::em_flush);
    inner_->flush();
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  bool register_buffers(
      std::span<const std::span<std::byte>> regions) override {
    return inner_->register_buffers(regions);
  }

 private:
  template <typename Part>
  static std::uint64_t total_bytes(std::span<const Part> parts) {
    std::uint64_t n = 0;
    for (const auto& p : parts) n += p.size();
    return n;
  }

  std::unique_ptr<embsp::em::Backend> inner_;
};

/// Times post/progress/exchange of one transport endpoint.  A post is one
/// message; its byte count is the sum of its fragments.  Exchange time is
/// the barrier wait plus delivery.
class TimedTransport final : public embsp::net::Transport {
 public:
  explicit TimedTransport(embsp::net::Transport& inner) : inner_(&inner) {}

  [[nodiscard]] std::uint32_t rank() const override { return inner_->rank(); }
  [[nodiscard]] std::uint32_t size() const override { return inner_->size(); }

  using Transport::post;
  void post(std::uint32_t dst,
            std::span<const std::span<const std::byte>> frags) override {
    std::uint64_t bytes = 0;
    for (const auto& f : frags) bytes += f.size();
    trace::Span span(trace::Kind::net_post, bytes);
    inner_->post(dst, frags);
  }
  void progress() override {
    trace::Span span(trace::Kind::net_progress);
    inner_->progress();
  }
  std::vector<std::vector<embsp::net::Blob>> exchange() override {
    trace::Span span(trace::Kind::net_exchange);
    return inner_->exchange();
  }
  void abort(const std::string& reason) noexcept override {
    inner_->abort(reason);
  }
  void export_metrics(embsp::obs::Registry& reg) const override {
    inner_->export_metrics(reg);
  }

 private:
  embsp::net::Transport* inner_;
};

/// Forwarding program: times superstep() and the State's
/// serialize/deserialize.  The wrapped State is the only member of
/// TracedProgram::State and is serialized through its own methods, so the
/// context bytes are identical to the wrapped program's.
template <embsp::bsp::Program P>
struct TracedProgram {
  const P* inner = nullptr;

  struct State {
    typename P::State inner;

    void serialize(embsp::util::Writer& w) const {
      trace::Span span(trace::Kind::cgm_serialize);
      const std::size_t before = w.size();
      inner.serialize(w);
      span.add_amount(w.size() - before);
    }
    void deserialize(embsp::util::Reader& r) {
      trace::Span span(trace::Kind::cgm_deserialize);
      inner.deserialize(r);
    }
  };

  bool superstep(std::size_t step, const embsp::bsp::ProcEnv& env, State& s,
                 const embsp::bsp::Inbox& in,
                 embsp::bsp::Outbox& out) const {
    trace::Span span(trace::Kind::cgm_superstep);
    return inner->superstep(step, env, s.inner, in, out);
  }
};

}  // namespace e2ebench
