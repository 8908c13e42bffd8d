// Fixture: stdio-style formatting below the most permissive root. An I/O
// loop may block in its receive, but the address conversion it calls per
// datagram must not format through the printf machinery: glibc's
// inet_ntop does, and so does snprintf. Both are caught, one call down.
//
// EXPECT-FINDING: format
#include <arpa/inet.h>
#include <netinet/in.h>

#include <cstdio>

#include "common/hot_path.hpp"

namespace fixture {

void address_text(const sockaddr_in& sa, char* out, socklen_t len) {
  ::inet_ntop(AF_INET, &sa.sin_addr, out, len);
}

int port_text(const sockaddr_in& sa, char* out, std::size_t len) {
  return std::snprintf(out, len, "%u", static_cast<unsigned>(sa.sin_port));
}

JANUS_HOT_PATH_IO void receive_loop(const sockaddr_in& sa) {
  char ip[INET_ADDRSTRLEN];
  char port[8];
  address_text(sa, ip, sizeof(ip));
  port_text(sa, port, sizeof(port));
}

}  // namespace fixture
