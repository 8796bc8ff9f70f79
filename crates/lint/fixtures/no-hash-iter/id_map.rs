use storm_sim::IdMap;

pub struct Relay {
    by_sock: IdMap<u32, u64>,
}

impl Relay {
    pub fn total(&self) -> u64 {
        self.by_sock.iter().map(|(_, v)| v).sum()
    }

    pub fn socks(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (&sock, _) in &self.by_sock {
            out.push(sock);
        }
        out
    }
}
