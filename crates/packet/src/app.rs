//! Application-protocol annotations used by content-aware NFs.
//!
//! The Trojan detector of the paper (De Carli et al., reference \[12\]) flags a
//! host when it observes, in order: (1) an SSH connection, (2) FTP downloads
//! of HTML, ZIP and EXE files, and (3) IRC activity. Re-implementing a full
//! DPI engine is out of scope for the reproduction, so the trace generator
//! labels packets with the application protocol (and FTP transfer kind) that a
//! DPI pass would have produced. The Trojan detector then consumes these
//! labels exactly as the original consumes DPI verdicts.

use std::fmt;

/// The kind of file carried by an FTP data transfer (Trojan signature step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtpTransferKind {
    /// An HTML document.
    Html,
    /// A ZIP archive.
    Zip,
    /// A Windows executable.
    Exe,
    /// Any other payload.
    Other,
}

/// Application protocol of a flow, as a DPI engine would label it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    /// Secure shell (Trojan signature step 1).
    Ssh,
    /// File transfer protocol; carries the transferred file kind
    /// (Trojan signature step 2 requires HTML, ZIP and EXE downloads).
    Ftp(FtpTransferKind),
    /// Internet relay chat (Trojan signature step 3).
    Irc,
    /// Plain web traffic.
    Http,
    /// DNS lookups.
    Dns,
    /// Anything else.
    Other,
}

impl AppProtocol {
    /// Conventional server port for the protocol (used by the trace generator).
    pub fn default_port(&self) -> u16 {
        match self {
            AppProtocol::Ssh => 22,
            AppProtocol::Ftp(_) => 21,
            AppProtocol::Irc => 6667,
            AppProtocol::Http => 80,
            AppProtocol::Dns => 53,
            AppProtocol::Other => 9999,
        }
    }
}

impl fmt::Display for AppProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppProtocol::Ssh => write!(f, "ssh"),
            AppProtocol::Ftp(k) => write!(f, "ftp({k:?})"),
            AppProtocol::Irc => write!(f, "irc"),
            AppProtocol::Http => write!(f, "http"),
            AppProtocol::Dns => write!(f, "dns"),
            AppProtocol::Other => write!(f, "other"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ports() {
        assert_eq!(AppProtocol::Ssh.default_port(), 22);
        assert_eq!(AppProtocol::Ftp(FtpTransferKind::Zip).default_port(), 21);
        assert_eq!(AppProtocol::Irc.default_port(), 6667);
        assert_eq!(AppProtocol::Http.default_port(), 80);
    }
}
