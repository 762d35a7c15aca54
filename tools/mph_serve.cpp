// mph-serve — the cached, batched checking daemon (docs/SERVE.md).
//
//   mph-serve                               serve line-delimited JSON on stdin/stdout
//   mph-serve --listen 7411                 serve one client at a time on 127.0.0.1:7411
//   mph-serve --max-budget-states 50000     ceiling on any request's state cap
//   mph-serve --max-budget-ms 2000          ceiling on any request's wall-clock budget
//   mph-serve --max-threads 4               ceiling on requested worker threads
//
// Protocol: one JSON request per line, one JSON response per line. Ops:
// parse, classify, check, vacuity, invalidate, stats (see docs/SERVE.md).
// Malformed JSON gets {"ok": false, "error": {"code": "bad-json", ...}} —
// the daemon never dies on input. On shutdown (EOF, SIGINT/SIGTERM) the
// stats dump goes to stderr; SIGUSR1 requests a dump between requests
// without stopping.
//
// Exit status: 0 = clean shutdown, 2 = usage error or transport failure.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "src/serve/server.hpp"
#include "src/support/parse_num.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace mph;

/// Requests beyond this are rejected (bad-request), bounding daemon memory
/// against a hostile or broken client.
constexpr std::size_t kMaxLineBytes = 4u << 20;

volatile std::sig_atomic_t g_shutdown = 0;
volatile std::sig_atomic_t g_dump_stats = 0;

void on_terminate(int) { g_shutdown = 1; }
void on_usr1(int) { g_dump_stats = 1; }

int usage(std::ostream& out, int code) {
  out << "usage: mph-serve [options]\n"
         "  --stdio               serve stdin/stdout (default)\n"
         "  --listen PORT         serve 127.0.0.1:PORT, one client at a time\n"
         "  --max-budget-states N ceiling on any request's state cap (default 200000)\n"
         "  --max-budget-ms N     ceiling on any request's wall-clock budget in ms\n"
         "                        (default 0 = requests may run undeadlined)\n"
         "  --max-threads N       ceiling on requested threads (default 8)\n"
         "  --quiet               no stats dump on shutdown\n";
  return code;
}

/// Oversized-line guard: the response every too-long request line gets.
std::string line_too_long() {
  return serve::JsonWriter()
      .field("ok", false)
      .field("error", serve::JsonWriter()
                          .field("code", "bad-request")
                          .field("message", "request line exceeds the daemon's size cap")
                          .build())
      .build()
      .dump();
}

void maybe_dump(const serve::Server& server) {
  if (!g_dump_stats) return;
  g_dump_stats = 0;
  std::cerr << server.stats_text();
}

int serve_stdio(serve::Server& server, bool quiet) {
  std::string line;
  while (!g_shutdown && std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::cout << (line.size() > kMaxLineBytes ? line_too_long() : server.handle_line(line))
              << "\n"
              << std::flush;
    maybe_dump(server);
  }
  if (!quiet) std::cerr << server.stats_text();
  return 0;
}

#ifndef _WIN32
int serve_tcp(serve::Server& server, std::uint16_t port, bool quiet) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "mph-serve: cannot create socket\n";
    return 2;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 4) < 0) {
    std::cerr << "mph-serve: cannot listen on 127.0.0.1:" << port << "\n";
    ::close(listener);
    return 2;
  }
  std::cerr << "mph-serve: listening on 127.0.0.1:" << port << "\n";

  while (!g_shutdown) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (g_shutdown) break;
      maybe_dump(server);
      continue;  // EINTR (e.g. SIGUSR1) or a transient accept failure
    }
    std::string buffer;
    char chunk[4096];
    for (;;) {
      maybe_dump(server);
      const auto got = ::recv(client, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(got));
      std::size_t eol;
      while ((eol = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, eol);
        buffer.erase(0, eol + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        std::string response =
            (line.size() > kMaxLineBytes ? line_too_long() : server.handle_line(line)) +
            "\n";
        std::size_t sent = 0;
        while (sent < response.size()) {
          const auto n = ::send(client, response.data() + sent, response.size() - sent, 0);
          if (n <= 0) break;
          sent += static_cast<std::size_t>(n);
        }
      }
      if (buffer.size() > kMaxLineBytes) break;  // unterminated oversized line
    }
    ::close(client);
  }
  ::close(listener);
  if (!quiet) std::cerr << server.stats_text();
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig config;
  bool quiet = false;
  std::optional<std::uint16_t> port;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "mph-serve: " << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_num = [&](const char* flag, std::uint64_t max) -> std::uint64_t {
      const std::string text = next(flag);
      if (auto v = parse_u64(text, max)) return *v;
      std::cerr << "mph-serve: " << flag << " needs a base-10 unsigned integer <= " << max
                << ", got '" << text << "'\n";
      std::exit(2);
    };
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--stdio") {
      port.reset();
    } else if (arg == "--listen") {
      port = static_cast<std::uint16_t>(next_num("--listen", 65535));
    } else if (arg == "--max-budget-states") {
      config.max_budget_states =
          static_cast<std::size_t>(next_num("--max-budget-states", UINT64_MAX));
    } else if (arg == "--max-budget-ms") {
      config.max_budget_ms = next_num("--max-budget-ms", UINT64_MAX);
    } else if (arg == "--max-threads") {
      config.max_threads = static_cast<unsigned>(next_num("--max-threads", 1024));
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "mph-serve: unknown option " << arg << "\n";
      return usage(std::cerr, 2);
    }
  }

  std::signal(SIGINT, on_terminate);
  std::signal(SIGTERM, on_terminate);
#ifdef SIGUSR1
  std::signal(SIGUSR1, on_usr1);
#endif

  serve::Server server(config);
#ifndef _WIN32
  if (port) return serve_tcp(server, *port, quiet);
#else
  if (port) {
    std::cerr << "mph-serve: --listen is not supported on this platform\n";
    return 2;
  }
#endif
  return serve_stdio(server, quiet);
}
