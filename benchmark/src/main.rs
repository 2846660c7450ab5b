fn main() {
    std::process::exit(dnsttl_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
